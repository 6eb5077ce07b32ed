package fft

import (
	"math"
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

// complexCounts is the full-size complex autocorrelation the real-input
// kernel replaces — zero-pad, forward, |X|², inverse, round — kept here as
// an independent reference at sizes where the quadratic count is too slow.
func complexCounts(p *Plan, x []float64) []int64 {
	z := make([]complex128, p.Size())
	loadPadded(z, x)
	p.Transform(z, false, 1)
	for i := range z {
		re, im := real(z[i]), imag(z[i])
		z[i] = complex(re*re+im*im, 0)
	}
	p.Transform(z, true, 1)
	out := make([]int64, len(x))
	for i := range out {
		out[i] = int64(math.Round(real(z[i])))
	}
	return out
}

// TestRealSpectrumMatchesComplex checks the packed half spectrum against
// the full complex transform, slot by slot including the packed DC/Nyquist
// pair, and the inverse pre-pass round trip back to the input.
func TestRealSpectrumMatchesComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, m := range []int{4, 8, 16, 64, 512, 4096, 1 << 15} {
		p := PlanFor(m)
		q := p.halfPlan()
		x := make([]float64, m)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		spec := make([]complex128, m/2)
		packReal(spec, x)
		q.Transform(spec, false, 1)
		forwardRealPost(spec, p.twf)

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
		inverseRealPre(spec, p.twi)
		q.Transform(spec, true, 1)
		unpackReal(back, spec)
		for i := range x {
			if d := back[i] - x[i]; d > eps || d < -eps {
				t.Fatalf("m=%d i=%d: real round trip off by %g", m, i, d)
			}
		}
	}
}

// TestKernelCountsBitIdentical sweeps plan sizes 2^4..2^21: autocorrelation
// counts through the real-input kernel must agree bit for bit with the
// full-size complex transform (and, where the quadratic reference is
// affordable, exactly with ground truth). Counts are the mining-visible
// output, and they are integers: the two raw spectra differ only far below
// the 0.5 rounding margin.
func TestKernelCountsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	maxLog := 21
	if testing.Short() {
		maxLog = 16
	}
	for lg := 4; lg <= maxLog; lg++ {
		m := 1 << lg
		// NewPlan, not PlanFor: the biggest tables (tens of MB) should be
		// collectable when the size's iteration ends, not pinned in the
		// shared cache for the rest of the package run.
		p := NewPlan(m)
		n := m / 2 // the longest input the plan admits
		x := randIndicator(rng, n)

		got := make([]int64, n)
		p.AutocorrelateCountsInto(x, got, 1)
		want := complexCounts(p, x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("m=2^%d lag %d: real kernel %d vs complex %d", lg, i, got[i], want[i])
			}
		}
		if lg <= 12 {
			exact := autocorrExactInt(x)
			for i := range exact {
				if got[i] != exact[i] {
					t.Fatalf("m=2^%d lag %d: kernel count %d vs exact %d", lg, i, got[i], exact[i])
				}
			}
		}
	}
}

// TestPairKernelCountsBitIdentical covers the block-pair path the detect
// stage runs — each block correlated with the window of itself and its
// successor — serial and parallel, against the complex reference per input:
// at every block size from the smallest plan up to one block, the counts of
// the lags the block admits equal the full-size complex transform's.
func TestPairKernelCountsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{5, 100, 1 << 10, 1 << 13} {
		x := randIndicator(rng, n)
		want := complexCounts(PlanFor(NextPow2(2*n)), x)
		for blk := 2; blk < 2*n; blk *= 4 {
			p := PlanFor(2 * blk)
			got := make([]int64, min(n, blk+1))
			for _, workers := range []int{1, 2, 4, 7} {
				p.AutocorrelateCountsInto(x, got, workers)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("n=%d B=%d workers=%d lag %d: %d vs complex %d",
							n, blk, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestKernelCountsMatchDirectSmallN pins the smallest plans, including the
// size-2 plan that has no packed layout: for every n in 1..64 (plans
// 2..128), the one-block counts and the counts at every smaller block size
// equal the direct O(n²) lag counts at one and at four workers.
func TestKernelCountsMatchDirectSmallN(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for n := 1; n <= 64; n++ {
		x := randIndicator(rng, n)
		x[0] = 1 // n = 1 must see a non-zero count
		want := autocorrExactInt(x)
		for _, workers := range []int{1, 4} {
			single := make([]int64, n)
			PlanFor(NextPow2(2*n)).AutocorrelateCountsInto(x, single, workers)
			for i := range want {
				if single[i] != want[i] {
					t.Fatalf("n=%d workers=%d lag %d: one block %d, direct %d", n, workers, i, single[i], want[i])
				}
			}
			for blk := 2; blk < n; blk *= 2 {
				got := make([]int64, blk+1)
				PlanFor(2*blk).AutocorrelateCountsInto(x, got, workers)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("n=%d B=%d workers=%d lag %d: blocks %d, direct %d", n, blk, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestRealKernelZeroAllocAfterWarmup extends the zero-alloc guarantee of the
// count paths (TestPlanZeroAllocAfterWarmup) to a fresh plan on the automatic
// worker policy: once the first call has built the half plan and warmed the
// half-size scratch pool, the real kernel allocates nothing.
func TestRealKernelZeroAllocAfterWarmup(t *testing.T) {
	n := 1 << 10
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i += 3 {
		a[i] = 1
		b[(i+1)%n] = 1
	}
	p := NewPlan(NextPow2(2 * n))
	out := make([]int64, n)
	p.AutocorrelateCountsInto(a, out, 0) // warm pool + half plan
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	allocs := testing.AllocsPerRun(20, func() {
		p.AutocorrelateCountsInto(a, out, 0)
		p.AutocorrelateCountsInto(b, out, 0)
	})
	// A concurrent GC sweep can occasionally empty the sync.Pool mid-run, so
	// tolerate a stray refill rather than flake.
	if allocs > 1 {
		t.Fatalf("real kernel allocates %.1f times per run after warm-up", allocs)
	}
}

// TestBandZeroAllocAfterWarmup extends the zero-alloc guarantee to the
// block path: a series of many blocks takes its block, spectrum and
// accumulator buffers from the half plan's pool, so once the pool is warm
// the kernel allocates nothing.
func TestBandZeroAllocAfterWarmup(t *testing.T) {
	n := 1 << 13
	x := make([]float64, n)
	for i := 0; i < n; i += 3 {
		x[i] = 1
	}
	p := NewPlan(BandSize(n, 100))
	if blocks := n / (p.Size() / 2); blocks < 4 {
		t.Fatalf("plan %d gives %d blocks; want several", p.Size(), blocks)
	}
	out := make([]int64, 101)
	p.AutocorrelateCountsInto(x, out, 1) // warm pool + half plan
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	allocs := testing.AllocsPerRun(20, func() {
		p.AutocorrelateCountsInto(x, out, 1)
	})
	// A concurrent GC sweep can occasionally empty the sync.Pool mid-run, so
	// tolerate a stray refill rather than flake.
	if allocs > 1 {
		t.Fatalf("block kernel allocates %.1f times per run after warm-up", allocs)
	}
}

// TestRealKernelRejectsBadShapes pins the panic contract of the real-kernel
// entry points.
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
	mustPanic("lag beyond the block", func() {
		p.AutocorrelateCountsInto(make([]float64, 20), make([]int64, 10), 1)
	})
	mustPanic("more lags than samples", func() {
		p.AutocorrelateCountsInto(make([]float64, 4), make([]int64, 5), 1)
	})
	mustPanic("tiny plan input too long", func() {
		PlanFor(2).AutocorrelateCountsInto(make([]float64, 2), make([]int64, 2), 1)
	})
}

// FuzzKernelCountsEquivalence fuzzes the kernel against ground truth: any
// 0/1 input must produce exactly the direct lag counts through one block
// and through the smallest blocks the kernel admits.
func FuzzKernelCountsEquivalence(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 512 {
			t.Skip()
		}
		n := len(data)
		x := make([]float64, n)
		for i, b := range data {
			x[i] = float64(b & 1)
		}
		want := autocorrExactInt(x)
		single := make([]int64, n)
		PlanFor(NextPow2(2*n)).AutocorrelateCountsInto(x, single, 1)
		for i := range want {
			if single[i] != want[i] {
				t.Fatalf("lag %d: one block %d, direct %d", i, single[i], want[i])
			}
		}
		for _, blk := range []int{2, 8} {
			got := make([]int64, min(n, blk+1))
			PlanFor(2*blk).AutocorrelateCountsInto(x, got, 1)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("B=%d lag %d: blocks %d, direct %d", blk, i, got[i], want[i])
				}
			}
		}
	})
}

// loadPadded copies a real sequence into the zero-padded scratch buffer.
func loadPadded(dst []complex128, src []float64) {
	for i, v := range src {
		dst[i] = complex(v, 0)
	}
	clear(dst[len(src):])
}

// unpackReal writes the real sequence back out of the packed complex vector:
// x[2j] = Re z[j], x[2j+1] = Im z[j], for the prefix len(x) ≤ 2·len(z).
func unpackReal(x []float64, z []complex128) {
	n := len(x)
	for j := 0; 2*j < n; j++ {
		x[2*j] = real(z[j])
		if 2*j+1 < n {
			x[2*j+1] = imag(z[j])
		}
	}
}

// inverseRealPre converts a packed half spectrum into the half-size complex
// vector whose inverse transform is the packed real sequence — the exact
// algebraic inverse of forwardRealPost, using the inverse table ti
// (ti[h+k] = w^{−k}) for the untwiddle. The half-size inverse transform's
// built-in 1/h scaling is precisely the factor the length-m real inverse
// needs; no extra scaling applies.
func inverseRealPre(z []complex128, ti []complex128) {
	h := len(z)
	z0 := z[0] // packed (X(0), X(h)), both real
	z[0] = complex((real(z0)+imag(z0))*0.5, (real(z0)-imag(z0))*0.5)
	zm := z[h/2]
	z[h/2] = complex(real(zm), -imag(zm))
	for k := 1; 2*k < h; k++ {
		xk, xhk := z[k], z[h-k]
		c := complex(real(xhk), -imag(xhk))
		e := (xk + c) * 0.5
		d := (xk - c) * 0.5
		o := ti[h+k] * d
		// Z(k) = E + i·O, Z(h−k) = conj(E) + i·conj(O).
		z[k] = complex(real(e)-imag(o), imag(e)+real(o))
		z[h-k] = complex(real(e)+imag(o), -imag(e)+real(o))
	}
}

// rawAutocorr runs the kernel of AutocorrelateCountsInto up to the inverse
// transform and returns the lags the plan's block admits (at most len(x))
// before rounding.
func rawAutocorr(p *Plan, x []float64) []float64 {
	out := make([]float64, min(len(x), p.n/2+1))
	if p.n < 4 {
		out[0] = x[0] * x[0]
		return out
	}
	q := p.halfPlan()
	zp := p.rawLags(x, 1)
	unpackReal(out, *zp)
	q.release(zp)
	return out
}
