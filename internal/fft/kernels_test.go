package fft

import (
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"

	"periodica/internal/obs"
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

// TestRealSpectrumMatchesComplex checks the packed half spectrum of one
// zero-padded block against the full complex transform, slot by slot in
// the kernel's bit-reversed order including the packed DC/Nyquist pair, and
// the inverse pre-pass round trip back to the input.
func TestRealSpectrumMatchesComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, m := range []int{4, 8, 16, 64, 512, 4096, 1 << 15} {
		p := PlanFor(m)
		q := p.halfPlan()
		h := m / 2
		x := make([]float64, h)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		spec := make([]complex128, h)
		packBlock(spec, x, q.twf)
		q.dif(spec, h/2, 1)
		forwardRealPost(spec, p.split)

		z := make([]complex128, m)
		loadPadded(z, x)
		p.Transform(z, false, 1)
		tol := eps * float64(m)
		if d := cmplx.Abs(spec[0] - complex(real(z[0]), real(z[h]))); d > tol {
			t.Fatalf("m=%d: packed (DC, Nyquist) off by %g", m, d)
		}
		for r := 1; r < h; r++ {
			k := revSlot(r, h)
			if d := cmplx.Abs(spec[r] - z[k]); d > tol {
				t.Fatalf("m=%d slot %d (k=%d): real spectrum off by %g (%v vs %v)", m, r, k, d, spec[r], z[k])
			}
		}

		back := make([]float64, m)
		inverseRealPre(spec, p.split)
		q.dit(spec, 1)
		unpackReal(back, spec)
		for i := range back {
			want := 0.0
			if i < h {
				want = x[i]
			}
			if d := back[i]/float64(h) - want; d > eps || d < -eps {
				t.Fatalf("m=%d i=%d: real round trip off by %g", m, i, d)
			}
		}
	}
}

// TestReversedSlotRules checks the slot rules the kernel's passes iterate
// by, for every half size h from 2 to 2^20: slot 1 holds k = h/2; the
// octave walk pairs each slot r ≥ 2 with the slot of h − rev(r), once; and
// the odd frequencies are exactly the slots r ≥ h/2.
func TestReversedSlotRules(t *testing.T) {
	for h := 2; h <= 1<<20; h <<= 1 {
		if k := revSlot(1, h); k != h/2 {
			t.Fatalf("h=%d: slot 1 holds k=%d", h, k)
		}
		seen := 2
		for lo := 2; lo < h; lo <<= 1 {
			for r, s := lo, 2*lo-1; r < s; r, s = r+1, s-1 {
				if want := revSlot(h-revSlot(r, h), h); s != want || s != 3*lo-1-r {
					t.Fatalf("h=%d: slot %d paired with %d, want %d", h, r, s, want)
				}
				seen += 2
			}
		}
		if seen != h {
			t.Fatalf("h=%d: octave walk covers %d slots", h, seen)
		}
		for r := 0; r < h; r++ {
			if odd := revSlot(r, h)&1 == 1; odd != (r >= h/2) {
				t.Fatalf("h=%d slot %d: odd=%v", h, r, odd)
			}
		}
	}
}

// TestDIFMatchesReversedTransform checks the forward network against the
// recurrence transform in bit-reversed order, within the bound of
// TestPlanMatchesRecurrenceWithinBound: the whole network on any input,
// and the kernel's form — packBlock's folded first stage, then the rest —
// on an input whose upper half is zero.
func TestDIFMatchesReversedTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, n := range []int{2, 4, 8, 16, 128, 4096, 32768} {
		p := PlanFor(n)
		x := randComplex(rng, n)
		want := append([]complex128(nil), x...)
		transformRecurrence(want, false)
		var scale float64
		for _, v := range x {
			scale += cmplx.Abs(v)
		}
		got := append([]complex128(nil), x...)
		p.dif(got, n, 1)
		for r := range got {
			if d := cmplx.Abs(got[r] - want[revSlot(r, n)]); d > 1e-9*scale {
				t.Fatalf("n=%d slot %d: forward network off by %g", n, r, d)
			}
		}

		re := make([]float64, n)
		for i := range re {
			re[i] = rng.NormFloat64()
		}
		packed := make([]complex128, n)
		for j := 0; j < n/2; j++ {
			packed[j] = complex(re[2*j], re[2*j+1])
		}
		want = append(want[:0], packed...)
		transformRecurrence(want, false)
		packBlock(got, re, p.twf)
		p.dif(got, n/2, 1)
		scale = 0
		for _, v := range packed {
			scale += cmplx.Abs(v)
		}
		for r := range got {
			if d := cmplx.Abs(got[r] - want[revSlot(r, n)]); d > 1e-9*scale {
				t.Fatalf("n=%d slot %d: packed forward off by %g", n, r, d)
			}
		}
	}
}

// TestKernelCountersPerCall pins what one kernel call adds to the FFT
// counters: one real-kernel call, and one half-size transform per block
// plus the one inverse.
func TestKernelCountersPerCall(t *testing.T) {
	m := obs.FFT()
	for _, tc := range []struct{ n, size int }{{1000, 64}, {1000, 2048}, {1 << 12, 256}, {65, 4}} {
		x := make([]float64, tc.n)
		real0, radix0 := m.KernelReal.Value(), m.KernelRadix2.Value()
		PlanFor(tc.size).AutocorrelateCountsInto(x, make([]int64, 3), 1)
		blocks := (tc.n + tc.size/2 - 1) / (tc.size / 2)
		if d := m.KernelReal.Value() - real0; d != 1 {
			t.Fatalf("n=%d plan %d: %d real-kernel calls, want 1", tc.n, tc.size, d)
		}
		if d := m.KernelRadix2.Value() - radix0; d != int64(blocks+1) {
			t.Fatalf("n=%d plan %d: %d half-size transforms, want %d", tc.n, tc.size, d, blocks+1)
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
// and through blocks of every power of two from 2 up to that one block.
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
		for blk := 2; blk < n; blk *= 2 {
			got := make([]int64, blk+1)
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

// inverseRealPre converts a packed half spectrum in bit-reversed order into
// the half-size vector whose unscaled inverse network output is h times the
// packed real sequence — the exact algebraic inverse of forwardRealPost,
// using the conjugates of the split table tw (tw[r] = w^rev(r)) for the
// untwiddle.
func inverseRealPre(z []complex128, tw []complex128) {
	h := len(z)
	z0 := z[0] // packed (X(0), X(h)), both real
	z[0] = complex((real(z0)+imag(z0))*0.5, (real(z0)-imag(z0))*0.5)
	z[1] = complex(real(z[1]), -imag(z[1]))
	for lo := 2; lo < h; lo <<= 1 {
		for r, s := lo, 2*lo-1; r < s; r, s = r+1, s-1 {
			xk, xhk := z[r], z[s]
			c := complex(real(xhk), -imag(xhk))
			e := (xk + c) * 0.5
			d := (xk - c) * 0.5
			o := cmplx.Conj(tw[r]) * d
			// Z(k) = E + i·O, Z(h−k) = conj(E) + i·conj(O).
			z[r] = complex(real(e)-imag(o), imag(e)+real(o))
			z[s] = complex(real(e)+imag(o), -imag(e)+real(o))
		}
	}
}

// revSlot returns the reversal of r's log₂h bits: the frequency bit-reversed
// slot r holds, or the slot of frequency r.
func revSlot(r, h int) int {
	return int(bits.Reverse64(uint64(r)) >> (64 - bits.Len(uint(h-1))))
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
	for i := range out {
		out[i] /= float64(q.n)
	}
	return out
}
