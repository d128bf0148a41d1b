package backend

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
