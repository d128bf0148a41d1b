package backend

import "context"

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

// PrefixHandle returns the shared-prefix handle WithSharedPrefix attached
// to ctx, or nil, and how many prefix evolutions it has completed.
func PrefixHandle(ctx context.Context) (any, int) {
	h, _ := ctx.Value(sharedPrefixKey{}).(*sharedPrefix)
	if h == nil {
		return nil, 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h, h.evolutions
}
