package benchsuite

import "testing"

// TestVerify runs cmd/bench's fast-versus-naive check, its sparse
// compacted-register case included, at the suite's two smaller widths.
func TestVerify(t *testing.T) {
	for _, w := range Widths[:2] {
		if err := Verify(w); err != nil {
			t.Fatal(err)
		}
	}
}
