package fft

import (
	"math"
	"testing"
)

// FuzzPlanTransformEquivalence drives the planned engine with fuzz-shaped
// indicator vectors and checks its three contracts at once: autocorrelation
// counts from the plan equal the counts from the seed recurrence transform,
// blocks of two samples give the second vector's one-block counts, and
// parallel butterflies
// equal serial ones bit-for-bit.
func FuzzPlanTransformEquivalence(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1, 0, 0, 1, 0}, []byte{0, 1, 1, 0})
	f.Add([]byte{1}, []byte{1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, d1, d2 []byte) {
		if len(d1) == 0 || len(d1) > 1024 {
			t.Skip()
		}
		n := len(d1)
		x1 := make([]float64, n)
		x2 := make([]float64, n)
		for i := range x1 {
			if d1[i]&1 == 1 {
				x1[i] = 1
			}
			if i < len(d2) && d2[i]&1 == 1 {
				x2[i] = 1
			}
		}
		m := NextPow2(2 * n)
		p := PlanFor(m)

		// Counts via the recurrence network (seed semantics).
		fa := make([]complex128, m)
		loadPadded(fa, x1)
		transformRecurrence(fa, false)
		for i := range fa {
			re, im := real(fa[i]), imag(fa[i])
			fa[i] = complex(re*re+im*im, 0)
		}
		transformRecurrence(fa, true)

		got := p.AutocorrelateCounts(x1)
		for i := 0; i < n; i++ {
			want := int64(math.Round(real(fa[i])))
			if got[i] != want {
				t.Fatalf("lag %d: plan count %d, recurrence count %d", i, got[i], want)
			}
		}

		// Blocks of 2 samples against the one-block counts, at several
		// worker counts.
		want2 := p.AutocorrelateCounts(x2)
		band := make([]int64, min(n, 3))
		for _, workers := range []int{1, 4} {
			PlanFor(4).AutocorrelateCountsInto(x2, band, workers)
			for i := range band {
				if band[i] != want2[i] {
					t.Fatalf("workers=%d lag %d: blocks %d vs one block %d", workers, i, band[i], want2[i])
				}
			}
		}

		// Raw parallel vs serial transforms must be bit-identical.
		serial := make([]complex128, m)
		par := make([]complex128, m)
		loadPadded(serial, x1)
		loadPadded(par, x1)
		p.Transform(serial, false, 1)
		p.Transform(par, false, 4)
		for i := range serial {
			if serial[i] != par[i] {
				t.Fatalf("element %d: serial %v vs parallel %v", i, serial[i], par[i])
			}
		}
	})
}
