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

// TestPairKernelCountsBitIdentical covers the pair path the detect stage
// runs, serial and parallel, against the complex reference per input.
func TestPairKernelCountsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{5, 100, 1 << 10, 1 << 13} {
		p := PlanFor(NextPow2(2 * n))
		x1 := randIndicator(rng, n)
		x2 := randIndicator(rng, n)
		want1, want2 := complexCounts(p, x1), complexCounts(p, x2)
		got1, got2 := make([]int64, n), make([]int64, n)
		for _, workers := range []int{1, 2, 4, 7} {
			p.AutocorrelateCountsPairInto(x1, x2, got1, got2, workers)
			for i := 0; i < n; i++ {
				if got1[i] != want1[i] || got2[i] != want2[i] {
					t.Fatalf("n=%d workers=%d lag %d: (%d,%d) vs (%d,%d)",
						n, workers, i, got1[i], got2[i], want1[i], want2[i])
				}
			}
		}
	}
}

// TestKernelCountsMatchDirectSmallN pins the smallest plans, including the
// size-2 plan that has no packed layout: for every n in 1..64 (plans
// 2..128), single and pair counts equal the direct O(n²) lag counts at one
// and at four workers.
func TestKernelCountsMatchDirectSmallN(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for n := 1; n <= 64; n++ {
		p := PlanFor(NextPow2(2 * n))
		x1 := randIndicator(rng, n)
		x2 := randIndicator(rng, n)
		x1[0] = 1 // n = 1 must see a non-zero count
		want1, want2 := autocorrExactInt(x1), autocorrExactInt(x2)
		for _, workers := range []int{1, 4} {
			single := make([]int64, n)
			p.AutocorrelateCountsInto(x1, single, workers)
			got1, got2 := make([]int64, n), make([]int64, n)
			p.AutocorrelateCountsPairInto(x1, x2, got1, got2, workers)
			for i := 0; i < n; i++ {
				if single[i] != want1[i] || got1[i] != want1[i] || got2[i] != want2[i] {
					t.Fatalf("n=%d plan=%d workers=%d lag %d: single %d, pair (%d,%d), direct (%d,%d)",
						n, p.Size(), workers, i, single[i], got1[i], got2[i], want1[i], want2[i])
				}
			}
		}
	}
}

// TestTransformBatchBitIdentical checks the stage-interleaved pair transform
// against per-buffer Transform calls — bit-for-bit, at every worker count,
// forward and inverse.
func TestTransformBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{2, 4, 64, 1 << 10, 1 << 14} {
		p := PlanFor(n)
		for _, inverse := range []bool{false, true} {
			for _, workers := range []int{1, 3, 8} {
				a, b := randComplex(rng, n), randComplex(rng, n)
				wantA := append([]complex128(nil), a...)
				wantB := append([]complex128(nil), b...)
				p.Transform(wantA, inverse, 1)
				p.Transform(wantB, inverse, 1)
				p.transformPair(a, b, inverse, workers)
				for i := range a {
					if a[i] != wantA[i] || b[i] != wantB[i] {
						t.Fatalf("n=%d inverse=%v workers=%d elem %d differs", n, inverse, workers, i)
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

func TestTransformBatchZeroAllocAfterWarmup(t *testing.T) {
	n := 1 << 10
	p := PlanFor(n)
	a, b := make([]complex128, n), make([]complex128, n)
	for i := range a {
		a[i] = complex(1, float64(i&7))
		b[i] = complex(2, float64(i&3))
	}
	allocs := testing.AllocsPerRun(20, func() {
		p.transformPair(a, b, false, 1)
		p.transformPair(a, b, true, 1)
	})
	if allocs > 0 {
		t.Fatalf("serial transformPair allocates %.1f times per run", allocs)
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
	mustPanic("autocorrelation input too long", func() {
		p.AutocorrelateCountsInto(make([]float64, 9), make([]int64, 9), 1)
	})
	mustPanic("pair input too long", func() {
		p.AutocorrelateCountsPairInto(make([]float64, 9), make([]float64, 9),
			make([]int64, 9), make([]int64, 9), 1)
	})
	mustPanic("pair length mismatch", func() {
		p.AutocorrelateCountsPairInto(make([]float64, 4), make([]float64, 5),
			make([]int64, 4), make([]int64, 5), 1)
	})
	mustPanic("tiny plan input too long", func() {
		PlanFor(2).AutocorrelateCountsInto(make([]float64, 2), make([]int64, 2), 1)
	})
}

// FuzzKernelCountsEquivalence fuzzes the kernel against ground truth: any
// 0/1 input must produce exactly the direct lag counts through the single
// and the pair entry points.
func FuzzKernelCountsEquivalence(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 512 {
			t.Skip()
		}
		n := len(data)
		x1 := make([]float64, n)
		x2 := make([]float64, n)
		for i, b := range data {
			x1[i] = float64(b & 1)
			x2[n-1-i] = float64(b >> 1 & 1)
		}
		p := PlanFor(NextPow2(2 * n))
		single := make([]int64, n)
		p.AutocorrelateCountsInto(x1, single, 1)
		got1, got2 := make([]int64, n), make([]int64, n)
		p.AutocorrelateCountsPairInto(x1, x2, got1, got2, 1)
		want1, want2 := autocorrExactInt(x1), autocorrExactInt(x2)
		for i := range want1 {
			if single[i] != want1[i] || got1[i] != want1[i] || got2[i] != want2[i] {
				t.Fatalf("lag %d: single %d, pair (%d,%d), direct (%d,%d)",
					i, single[i], got1[i], got2[i], want1[i], want2[i])
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

// forwardRealPost converts the half-size transform Z of the packed sequence
// into the packed half spectrum, in place. With E(k), O(k) the DFTs of the
// even and odd samples, Z(k) = E(k) + i·O(k) and the Hermitian symmetry of
// both gives, over (k, h−k) pairs,
//
//	E = (Z(k) + conj(Z(h−k)))/2,  O = (Z(k) − conj(Z(h−k)))/(2i),
//	X(k) = E + w^k·O,  X(h−k) = conj(E − w^k·O),  w = exp(−2πi/m),
//
// with the self-paired slots k = 0 (→ packed (X(0), X(h))) and k = h/2
// (→ conj) handled directly. tw is the plan's forward table: tw[h+k] = w^k.
func forwardRealPost(z []complex128, tw []complex128) {
	h := len(z)
	z0 := z[0]
	z[0] = complex(real(z0)+imag(z0), real(z0)-imag(z0))
	zm := z[h/2]
	z[h/2] = complex(real(zm), -imag(zm))
	for k := 1; 2*k < h; k++ {
		zk, zhk := z[k], z[h-k]
		c := complex(real(zhk), -imag(zhk))
		e := (zk + c) * 0.5
		d := zk - c
		o := complex(imag(d)*0.5, -real(d)*0.5) // d/(2i)
		wo := tw[h+k] * o
		a := e + wo
		b := e - wo
		z[k] = a
		z[h-k] = complex(real(b), -imag(b))
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

// rawAutocorr runs the self-correlation pipeline of AutocorrelateCountsInto
// — pack, half-size forward, fused spectral pass, half-size inverse — and
// returns the lags before rounding.
func rawAutocorr(p *Plan, x []float64) []float64 {
	out := make([]float64, len(x))
	if p.n < 4 {
		out[0] = x[0] * x[0]
		return out
	}
	q := p.halfPlan()
	z := make([]complex128, p.n/2)
	packReal(z, x)
	q.Transform(z, false, 1)
	autocorrSpectrumReal(z, p.twf)
	q.Transform(z, true, 1)
	unpackReal(out, z)
	return out
}
