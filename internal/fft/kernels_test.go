package fft

import (
	"math/cmplx"
	"math/rand"
	"testing"
)

func randIndicator(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		if rng.Intn(3) == 0 {
			x[i] = 1
		}
	}
	return x
}

// TestRealSpectrumMatchesComplex checks ForwardReal against the full complex
// transform, slot by slot including the packed DC/Nyquist pair, and the
// InverseReal round trip back to the input.
func TestRealSpectrumMatchesComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, m := range []int{4, 8, 16, 64, 512, 4096, 1 << 15} {
		p := PlanFor(m)
		x := make([]float64, m)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		spec := make([]complex128, m/2)
		p.ForwardRealWorkers(x, spec, 1)

		z := make([]complex128, m)
		loadPadded(z, x)
		p.Transform(z, false, 1)
		tol := eps * float64(m)
		if d := cmplx.Abs(spec[0] - complex(real(z[0]), real(z[m/2]))); d > tol {
			t.Fatalf("m=%d: packed (DC, Nyquist) off by %g", m, d)
		}
		for k := 1; k < m/2; k++ {
			if d := cmplx.Abs(spec[k] - z[k]); d > tol {
				t.Fatalf("m=%d k=%d: real spectrum off by %g (%v vs %v)", m, k, d, spec[k], z[k])
			}
		}

		back := make([]float64, m)
		p.InverseRealWorkers(spec, back, 1)
		for i := range x {
			if d := back[i] - x[i]; d > eps || d < -eps {
				t.Fatalf("m=%d i=%d: real round trip off by %g", m, i, d)
			}
		}
	}
}

// TestKernelCountsBitIdentical is the exhaustive cross-kernel equality sweep
// the dispatch relies on: for plan sizes 2^4..2^21, autocorrelation counts
// through the complex kernel and the real-input kernel must agree bit for bit
// (and, where the quadratic reference is affordable, exactly with ground
// truth). Counts are
// the mining-visible output, and they are integers: the kernels' raw spectra
// differ only far below the 0.5 rounding margin.
func TestKernelCountsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	maxLog := 21
	if testing.Short() {
		maxLog = 16
	}
	for lg := 4; lg <= maxLog; lg++ {
		m := 1 << lg
		// NewPlan, not PlanFor: the biggest tables (tens of MB) should be
		// collectable when the size's subtest ends, not pinned in the shared
		// cache for the rest of the package run.
		p := NewPlan(m)
		n := m / 2 // the longest input the plan admits
		x := randIndicator(rng, n)

		complexCounts := make([]int64, n)
		realCounts := make([]int64, n)
		p.AutocorrelateCountsKernelInto(x, complexCounts, 1, KernelComplex)
		p.AutocorrelateCountsKernelInto(x, realCounts, 1, KernelReal)
		for i := range complexCounts {
			if complexCounts[i] != realCounts[i] {
				t.Fatalf("m=2^%d lag %d: complex %d vs real %d", lg, i, complexCounts[i], realCounts[i])
			}
		}
		if lg <= 12 {
			exact := autocorrExactInt(x)
			for i := range exact {
				if complexCounts[i] != exact[i] {
					t.Fatalf("m=2^%d lag %d: kernel count %d vs exact %d", lg, i, complexCounts[i], exact[i])
				}
			}
		}
	}
}

// TestPairKernelCountsBitIdentical covers the pair path the detect stage
// actually runs: real vs complex pair kernels, serial and parallel, all bit
// identical.
func TestPairKernelCountsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{5, 100, 1 << 10, 1 << 13} {
		p := PlanFor(NextPow2(2 * n))
		x1 := randIndicator(rng, n)
		x2 := randIndicator(rng, n)
		wantC1, wantC2 := make([]int64, n), make([]int64, n)
		p.AutocorrelateCountsPairKernelInto(x1, x2, wantC1, wantC2, 1, KernelComplex)
		got1, got2 := make([]int64, n), make([]int64, n)
		for _, workers := range []int{1, 2, 4, 7} {
			for _, kernel := range []Kernel{KernelAuto, KernelReal} {
				if kernel == KernelReal && p.n < 4 {
					continue
				}
				p.AutocorrelateCountsPairKernelInto(x1, x2, got1, got2, workers, kernel)
				for i := 0; i < n; i++ {
					if got1[i] != wantC1[i] || got2[i] != wantC2[i] {
						t.Fatalf("n=%d workers=%d kernel=%d lag %d: (%d,%d) vs (%d,%d)",
							n, workers, kernel, i, got1[i], got2[i], wantC1[i], wantC2[i])
					}
				}
			}
		}
	}
}

// TestTransformBatchBitIdentical checks the batched entry point against
// per-buffer Transform calls — bit-for-bit, at every worker count, forward
// and inverse.
func TestTransformBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{2, 64, 1 << 10, 1 << 12} {
		p := PlanFor(n)
		for _, count := range []int{1, 2, 3, 5} {
			xs := make([][]complex128, count)
			for b := range xs {
				xs[b] = randComplex(rng, n)
			}
			check := func(workers int) {
				want := make([][]complex128, count)
				got := make([][]complex128, count)
				for b := range xs {
					want[b] = append([]complex128(nil), xs[b]...)
					p.Transform(want[b], true, 1)
					got[b] = append([]complex128(nil), xs[b]...)
				}
				p.TransformBatch(got, true, workers)
				for b := range got {
					for i := range got[b] {
						if got[b][i] != want[b][i] {
							t.Fatalf("n=%d count=%d workers=%d buf %d elem %d differs",
								n, count, workers, b, i)
						}
					}
				}
			}
			check(1)
			check(3)
			check(8)
		}
	}
}

// TestRealKernelZeroAllocAfterWarmup extends the zero-alloc guarantee to the
// real-input kernel: its single and pair count paths allocate nothing once
// the half-size scratch pool and half plan are warm.
func TestRealKernelZeroAllocAfterWarmup(t *testing.T) {
	n := 1 << 10
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	for i := 0; i < n; i += 3 {
		x1[i] = 1
		x2[(i+1)%n] = 1
	}
	p := PlanFor(NextPow2(2 * n))
	out1 := make([]int64, n)
	out2 := make([]int64, n)
	p.AutocorrelateCountsKernelInto(x1, out1, 1, KernelReal) // warm pool + half plan
	p.AutocorrelateCountsPairKernelInto(x1, x2, out1, out2, 1, KernelReal)
	allocs := testing.AllocsPerRun(20, func() {
		p.AutocorrelateCountsKernelInto(x1, out1, 1, KernelReal)
		p.AutocorrelateCountsPairKernelInto(x1, x2, out1, out2, 1, KernelReal)
	})
	// A concurrent GC sweep can occasionally empty the sync.Pool mid-run, so
	// tolerate a stray refill rather than flake.
	if allocs > 1 {
		t.Fatalf("real kernel count paths allocate %.1f times per run after warm-up", allocs)
	}
}

func TestTransformBatchZeroAllocAfterWarmup(t *testing.T) {
	n := 1 << 10
	p := PlanFor(n)
	xs := make([][]complex128, 4)
	for b := range xs {
		xs[b] = make([]complex128, n)
		for i := range xs[b] {
			xs[b][i] = complex(float64(b), float64(i&7))
		}
	}
	p.TransformBatch(xs, false, 1)
	allocs := testing.AllocsPerRun(20, func() {
		p.TransformBatch(xs, false, 1)
		p.TransformBatch(xs, true, 1)
	})
	if allocs > 0 {
		t.Fatalf("serial TransformBatch allocates %.1f times per run", allocs)
	}
}

// TestRealKernelRejectsBadShapes pins the panic contract of the real entry
// points.
func TestRealKernelRejectsBadShapes(t *testing.T) {
	p := PlanFor(16)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: want panic", name)
			}
		}()
		f()
	}
	mustPanic("tiny plan", func() {
		PlanFor(2).ForwardReal(make([]float64, 2), make([]complex128, 1))
	})
	mustPanic("input too long", func() {
		p.ForwardReal(make([]float64, 17), make([]complex128, 8))
	})
	mustPanic("wrong spectrum length", func() {
		p.ForwardReal(make([]float64, 16), make([]complex128, 16))
	})
	mustPanic("batch length mismatch", func() {
		p.TransformBatch([][]complex128{make([]complex128, 8)}, false, 1)
	})
}

// FuzzKernelCountsEquivalence fuzzes the cross-kernel equality: any 0/1
// input must produce bit-identical counts through the complex kernel, the
// real kernel, and the exact integer reference.
func FuzzKernelCountsEquivalence(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 512 {
			t.Skip()
		}
		x := make([]float64, len(data))
		for i, b := range data {
			x[i] = float64(b & 1)
		}
		p := PlanFor(NextPow2(2 * len(x)))
		cc := make([]int64, len(x))
		rc := make([]int64, len(x))
		p.AutocorrelateCountsKernelInto(x, cc, 1, KernelComplex)
		if p.Size() >= 4 {
			p.AutocorrelateCountsKernelInto(x, rc, 1, KernelReal)
		} else {
			copy(rc, cc)
		}
		exact := autocorrExactInt(x)
		for i := range exact {
			if cc[i] != exact[i] || rc[i] != exact[i] {
				t.Fatalf("lag %d: complex %d, real %d, exact %d", i, cc[i], rc[i], exact[i])
			}
		}
	})
}
