package backend

import (
	"context"

	"biasmit/internal/circuit"
	"biasmit/internal/density"
	"biasmit/internal/device"
	"biasmit/internal/dist"
)

// Ablation is one corner of fastPathAblations, exported for the external
// test package.
type Ablation struct {
	Name string
	Opt  Options
}

// FastPathAblations returns fastPathAblations to the external test
// package.
func FastPathAblations() []Ablation {
	var out []Ablation
	for _, ab := range fastPathAblations() {
		out = append(out, Ablation{Name: ab.name, Opt: ab.opt})
	}
	return out
}

// CountsDigest is countsDigest for the external test package.
var CountsDigest = countsDigest

// ExactMemoCap is the prefix memo's bound, for the external test
// package.
const ExactMemoCap = exactMemoCap

// ResetExactMemo empties the exact engine's prefix memo and zeroes its
// evolution count.
func ResetExactMemo() {
	exactMemo.mu.Lock()
	defer exactMemo.mu.Unlock()
	exactMemo.diags, exactMemo.evolutions = make(map[string][]float64), 0
}

// ExactMemoStats returns how many prefixes the memo holds and how many
// prefix evolutions it has stored since the last reset.
func ExactMemoStats() (entries, evolutions int) {
	exactMemo.mu.Lock()
	defer exactMemo.mu.Unlock()
	return len(exactMemo.diags), exactMemo.evolutions
}

// ExactDiags returns diag(ρ) for c on dev under opt's noise switches
// twice: as the exact engine computes it (memoized prefix, diagonal
// suffix) and from a density matrix evolved through every placed step.
func ExactDiags(c *circuit.Circuit, dev *device.Device, opt Options) (engine, full []float64, err error) {
	p, err := placeNoise(c, dev, opt)
	if err != nil {
		return nil, nil, err
	}
	if engine, err = p.exactDiag(context.Background(), nil); err != nil {
		return nil, nil, err
	}
	m := density.New(c.NumQubits)
	if err := p.evolve(context.Background(), m, p.steps); err != nil {
		return nil, nil, err
	}
	return engine, m.Probabilities(), nil
}

// ExactReference runs c on dev through the exact engine's oracle loop
// (runExactReference) instead of its compiled sampler.
func ExactReference(c *circuit.Circuit, dev *device.Device, opt Options) (*dist.Counts, error) {
	p, err := placeNoise(c, dev, opt)
	if err != nil {
		return nil, err
	}
	return runExactReference(context.Background(), p, opt, dev.ReadoutModel().Compile())
}
