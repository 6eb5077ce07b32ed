package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestPlanForwardMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256, 1024} {
		x := randComplex(rng, n)
		want := dftNaive(x, false)
		got := append([]complex128(nil), x...)
		NewPlan(n).Forward(got)
		if d := maxDiff(got, want); d > eps*float64(n) {
			t.Fatalf("n=%d: planned Forward deviates from naive DFT by %g", n, d)
		}
	}
}

func TestPlanInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{2, 8, 512, 4096} {
		p := PlanFor(n)
		x := randComplex(rng, n)
		y := append([]complex128(nil), x...)
		p.Forward(y)
		p.Inverse(y)
		if d := maxDiff(x, y); d > eps {
			t.Fatalf("n=%d: planned Forward∘Inverse deviates by %g", n, d)
		}
	}
}

func TestPlanRejectsWrongLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("plan size 8 on length-4 input: want panic")
		}
	}()
	NewPlan(8).Forward(make([]complex128, 4))
}

func TestPlanForRejectsNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PlanFor(12): want panic")
		}
	}()
	PlanFor(12)
}

func TestPlanForCachesBySize(t *testing.T) {
	if PlanFor(256) != PlanFor(256) {
		t.Fatal("PlanFor(256) returned distinct plans for the same size")
	}
	if PlanFor(256) == PlanFor(512) {
		t.Fatal("PlanFor returned the same plan for different sizes")
	}
}

// autocorrExactInt counts lag matches of a 0/1 vector in integer arithmetic:
// an error-free reference for the correlation paths.
func autocorrExactInt(x []float64) []int64 {
	n := len(x)
	out := make([]int64, n)
	for lag := 0; lag < n; lag++ {
		var c int64
		for i := 0; i+lag < n; i++ {
			if x[i] == 1 && x[i+lag] == 1 {
				c++
			}
		}
		out[lag] = c
	}
	return out
}

// rawCountsRecurrence runs the seed's autocorrelation pipeline — forward,
// |X|², inverse — entirely on the w*=wStep recurrence network and returns the
// raw (unrounded) lag values.
func rawCountsRecurrence(x []float64) []float64 {
	m := NextPow2(2 * len(x))
	fa := make([]complex128, m)
	loadPadded(fa, x)
	transformRecurrence(fa, false)
	for i := range fa {
		re, im := real(fa[i]), imag(fa[i])
		fa[i] = complex(re*re+im*im, 0)
	}
	transformRecurrence(fa, true)
	out := make([]float64, len(x))
	for i := range out {
		out[i] = real(fa[i])
	}
	return out
}

func worstCountError(raw []float64, exact []int64) float64 {
	worst := 0.0
	for i, v := range raw {
		if d := math.Abs(v - float64(exact[i])); d > worst {
			worst = d
		}
	}
	return worst
}

// TestPlanAccuracyNoWorseThanRecurrence is the accuracy regression test of
// the twiddle tables. Two referees: a naive O(n²) DFT bounds the planned
// transform's per-element error, and — because a float64 DFT reference
// carries round-off of its own, too noisy to rank two FFTs that differ by
// parts in 10¹³ — exact integer autocorrelation counts of a 0/1 indicator
// decide the plan-vs-recurrence comparison. Against those the table-driven
// plan must never lose to the w*=wStep recurrence, and at the largest size
// (where the recurrence has drifted through thousands of multiplies per
// stage) it must win outright. Fixed seed, so the comparisons cannot flake.
func TestPlanAccuracyNoWorseThanRecurrence(t *testing.T) {
	if testing.Short() {
		t.Skip("O(n²) references at n=8192")
	}
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{64, 512, 2048, 8192} {
		x := randComplex(rng, n)
		want := dftNaive(x, false)
		planned := append([]complex128(nil), x...)
		PlanFor(n).Forward(planned)
		if d := maxDiff(planned, want); d > eps*float64(n) {
			t.Errorf("n=%d: planned error %g vs naive DFT above bound", n, d)
		}

		ind := make([]float64, n)
		for i := range ind {
			if rng.Intn(3) == 0 {
				ind[i] = 1
			}
		}
		exact := autocorrExactInt(ind)
		planWorst := worstCountError(rawAutocorr(PlanFor(NextPow2(2*n)), ind), exact)
		recWorst := worstCountError(rawCountsRecurrence(ind), exact)
		if planWorst > recWorst {
			t.Errorf("n=%d: planned count error %g exceeds recurrence count error %g",
				n, planWorst, recWorst)
		}
		if n == 8192 && planWorst >= recWorst {
			t.Errorf("n=%d: planned count error %g not strictly below recurrence %g",
				n, planWorst, recWorst)
		}
	}
}

// TestPlanMatchesRecurrenceWithinBound pins the two implementations together
// on randomized data: they may differ only by accumulated round-off.
func TestPlanMatchesRecurrenceWithinBound(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{2, 16, 128, 4096, 32768} {
		x := randComplex(rng, n)
		a := append([]complex128(nil), x...)
		b := append([]complex128(nil), x...)
		PlanFor(n).Forward(a)
		transformRecurrence(b, false)
		var scale float64
		for _, v := range x {
			scale += cmplx.Abs(v)
		}
		if d := maxDiff(a, b); d > 1e-9*scale {
			t.Fatalf("n=%d: planned and recurrence transforms diverge by %g", n, d)
		}
	}
}

// TestPlanParallelBitIdentical asserts the parallel butterfly networks are
// not merely close to the serial ones but produce the exact same bits for
// every worker count: the natural-order transforms forward and inverse, and
// both directions as the block kernel runs them — the forward network from
// the second stage down (packBlock runs the first) and the inverse network
// on bit-reversed input, neither permuted.
func TestPlanParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{1 << 13, 1 << 14, 1 << 16} {
		p := PlanFor(n)
		x := randComplex(rng, n)
		for _, inverse := range []bool{false, true} {
			serial := append([]complex128(nil), x...)
			p.Transform(serial, inverse, 1)
			for _, workers := range []int{2, 3, 4, 7, 8, 16} {
				par := append([]complex128(nil), x...)
				p.Transform(par, inverse, workers)
				for i := range par {
					if par[i] != serial[i] {
						t.Fatalf("n=%d workers=%d inverse=%v: element %d differs: %v vs %v",
							n, workers, inverse, i, par[i], serial[i])
					}
				}
			}
		}
		kernel := []struct {
			name string
			run  func(z []complex128, workers int)
		}{
			{"forward from n/2", func(z []complex128, w int) { p.dif(z, n/2, w) }},
			{"inverse unpermuted", p.dit},
		}
		for _, k := range kernel {
			serial := append([]complex128(nil), x...)
			k.run(serial, 1)
			for _, workers := range []int{2, 4, 8} {
				par := append([]complex128(nil), x...)
				k.run(par, p.fit(workers))
				for i := range par {
					if par[i] != serial[i] {
						t.Fatalf("n=%d workers=%d %s: element %d differs: %v vs %v",
							n, workers, k.name, i, par[i], serial[i])
					}
				}
			}
		}
	}
}

// TestPlanSelfCorrelationPath covers the self-correlation path on one block
// (one forward transform, the split post-pass, the last block's spectral
// pass fused with the inverse pre-pass, one inverse) against the naive
// correlation, before rounding.
func TestPlanSelfCorrelationPath(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 3, 64, 1000} {
		x := make([]float64, n)
		for i := range x {
			if rng.Intn(3) == 0 {
				x[i] = 1
			}
		}
		self := rawAutocorr(PlanFor(NextPow2(2*n)), x)
		naive := crossCorrelateNaive(x, x)
		for i := range self {
			if math.Abs(self[i]-naive[i]) > 1e-6 {
				t.Fatalf("n=%d lag %d: self path %g vs naive %g", n, i, self[i], naive[i])
			}
		}
	}
}

func TestPlanAutocorrelateCountsMatchesPackage(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, n := range []int{1, 2, 7, 100, 4096} {
		x := make([]float64, n)
		for i := range x {
			if rng.Intn(4) == 0 {
				x[i] = 1
			}
		}
		p := PlanFor(NextPow2(2 * n))
		got := p.AutocorrelateCounts(x)
		want := AutocorrelateCounts(x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d lag %d: plan count %d vs package count %d", n, i, got[i], want[i])
			}
		}
	}
}

// TestPlanPairCountsBitIdenticalAcrossWorkers checks the block-pair path at
// every parallelism level against the one-block counts: blocks of 2^13
// samples have half-size transforms large enough that two or more workers
// split their butterflies.
func TestPlanPairCountsBitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	n := 1 << 15
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			x[i] = 1
		}
	}
	blk := 1 << 13
	want := AutocorrelateCounts(x)
	p := PlanFor(2 * blk)
	out := make([]int64, blk+1)
	for _, workers := range []int{1, 2, 4, 8} {
		p.AutocorrelateCountsInto(x, out, workers)
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("workers=%d lag %d: blocks %d vs one block %d", workers, i, out[i], want[i])
			}
		}
	}
}

// TestPlanZeroAllocAfterWarmup verifies the headline property: once the
// scratch pool is warm, the count paths — one block and several — allocate
// nothing.
func TestPlanZeroAllocAfterWarmup(t *testing.T) {
	n := 1 << 10
	x := make([]float64, n)
	for i := 0; i < n; i += 3 {
		x[i] = 1
	}
	single := PlanFor(NextPow2(2 * n))
	blocks := PlanFor(64)
	out := make([]int64, n)
	band := make([]int64, 33)
	single.AutocorrelateCountsInto(x, out, 1) // warm the pools
	blocks.AutocorrelateCountsInto(x, band, 1)
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	allocs := testing.AllocsPerRun(20, func() {
		single.AutocorrelateCountsInto(x, out, 1)
		blocks.AutocorrelateCountsInto(x, band, 1)
	})
	// A concurrent GC sweep can occasionally empty the sync.Pool mid-run, so
	// tolerate a stray refill rather than flake.
	if allocs > 1 {
		t.Fatalf("count paths allocate %.1f times per run after warm-up", allocs)
	}
}

// transformRecurrence is the pre-plan radix-2 network that regenerates each
// stage's twiddles with the w *= wStep recurrence. It is retained as the
// accuracy and performance baseline the plan is tested against (the
// recurrence accumulates rounding error with every butterfly of a stage,
// the tables do not).
func transformRecurrence(x []complex128, inverse bool) {
	n := len(x)
	if !IsPow2(n) {
		panic(fmt.Sprintf("fft: length %d is not a power of two", n))
	}
	// Bit-reversal permutation.
	shift := uint(64 - bits.Len(uint(n-1)))
	if n == 1 {
		return
	}
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		ang := 2 * math.Pi / float64(size)
		if !inverse {
			ang = -ang
		}
		wStep := complex(math.Cos(ang), math.Sin(ang))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			half := size / 2
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
	if inverse {
		inv := 1 / float64(n)
		for i := range x {
			x[i] = complex(real(x[i])*inv, imag(x[i])*inv)
		}
	}
}
