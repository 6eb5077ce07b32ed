package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

const eps = 1e-7

// dftNaive is the O(n²) reference transform.
func dftNaive(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			ang := sign * 2 * math.Pi * float64(k) * float64(j) / float64(n)
			sum += x[j] * cmplx.Exp(complex(0, ang))
		}
		if inverse {
			sum /= complex(float64(n), 0)
		}
		out[k] = sum
	}
	return out
}

func randComplex(rng *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return out
}

func maxDiff(a, b []complex128) float64 {
	worst := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -4, 3, 12} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 64, 256} {
		x := randComplex(rng, n)
		want := dftNaive(x, false)
		got := append([]complex128(nil), x...)
		Forward(got)
		if d := maxDiff(got, want); d > eps*float64(n) {
			t.Fatalf("n=%d: Forward deviates from naive DFT by %g", n, d)
		}
	}
}

func TestInverseMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{2, 16, 128} {
		x := randComplex(rng, n)
		want := dftNaive(x, true)
		got := append([]complex128(nil), x...)
		Inverse(got)
		if d := maxDiff(got, want); d > eps*float64(n) {
			t.Fatalf("n=%d: Inverse deviates from naive inverse DFT by %g", n, d)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randComplex(rng, 512)
	y := append([]complex128(nil), x...)
	Forward(y)
	Inverse(y)
	if d := maxDiff(x, y); d > eps {
		t.Fatalf("Forward∘Inverse deviates by %g", d)
	}
}

func TestForwardRejectsNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Forward on length 3: want panic")
		}
	}()
	Forward(make([]complex128, 3))
}

func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randComplex(rng, 256)
	var timeEnergy float64
	for _, v := range x {
		timeEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	Forward(x)
	var freqEnergy float64
	for _, v := range x {
		freqEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	freqEnergy /= float64(len(x))
	if math.Abs(timeEnergy-freqEnergy) > 1e-6*timeEnergy {
		t.Fatalf("Parseval violated: time %g vs freq %g", timeEnergy, freqEnergy)
	}
}

func crossCorrelateNaive(a, b []float64) []float64 {
	out := make([]float64, len(b))
	for p := range out {
		for i := 0; i < len(a) && i+p < len(b); i++ {
			out[p] += a[i] * b[i+p]
		}
	}
	return out
}

func TestAutocorrelateCountsOnIndicators(t *testing.T) {
	// x = indicator of {0,3,6,9}: lag-3 matches = 3, lag-6 = 2, lag-9 = 1.
	x := make([]float64, 12)
	for i := 0; i < 12; i += 3 {
		x[i] = 1
	}
	r := AutocorrelateCounts(x)
	want := map[int]int64{0: 4, 3: 3, 6: 2, 9: 1, 1: 0, 2: 0}
	for p, w := range want {
		if r[p] != w {
			t.Fatalf("r[%d] = %d, want %d", p, r[p], w)
		}
	}
}

// TestAutocorrelateCountsPairMatchesSingles checks the block-pair path
// against the single-block path: cutting a series into blocks of B samples,
// each correlated with the window of itself and its successor, gives at
// every lag up to B exactly the counts of the one block holding the series.
func TestAutocorrelateCountsPairMatchesSingles(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{1, 2, 7, 64, 1000} {
		x := make([]float64, n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				x[i] = 1
			}
		}
		want := AutocorrelateCounts(x)
		for blk := 2; blk < n; blk *= 2 {
			got := make([]int64, blk+1)
			PlanFor(2*blk).AutocorrelateCountsInto(x, got, 0)
			for p := range got {
				if got[p] != want[p] {
					t.Fatalf("n=%d B=%d p=%d: blocks %d vs one block %d", n, blk, p, got[p], want[p])
				}
			}
		}
	}
}

// TestAutocorrelateCountsPairEmpty pins the empty cases: an empty input is
// a no-op on any plan, even one too small for input, and so is an empty lag
// band over a series of several blocks.
func TestAutocorrelateCountsPairEmpty(t *testing.T) {
	PlanFor(1).AutocorrelateCountsInto(nil, nil, 0)
	if out := PlanFor(8).AutocorrelateCountsInto(nil, nil, 1); len(out) != 0 {
		t.Fatal("empty input: want empty result")
	}
	if out := PlanFor(4).AutocorrelateCountsInto(make([]float64, 9), []int64{}, 1); len(out) != 0 {
		t.Fatal("empty lag band: want empty result")
	}
	if AutocorrelateCounts(nil) != nil {
		t.Fatal("AutocorrelateCounts(nil): want nil")
	}
}

// TestValidateCountPrecision checks that the unrounded autocorrelation of a
// 0/1 vector sits far inside the 0.5 margin AutocorrelateCounts rounds in.
func TestValidateCountPrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, 1<<15)
	for i := range x {
		if rng.Intn(2) == 0 {
			x[i] = 1
		}
	}
	worst := 0.0
	for _, v := range rawAutocorr(PlanFor(NextPow2(2*len(x))), x) {
		worst = math.Max(worst, math.Abs(v-math.Round(v)))
	}
	if worst > 1e-3 {
		t.Fatalf("autocorrelation count error %g too close to 0.5 at n=%d", worst, len(x))
	}
}

// TestBlockCountPrecision holds the block kernel to the same margin at the
// most blocks it runs: a 2^16-sample series with a small lag band, on the
// plan BandSize picks (blocks of minBlock) and on the smallest plan the
// kernel admits (blocks of 2), keeps every unrounded lag within 1e-3 of an
// integer, and the rounded lags equal the direct counts.
func TestBlockCountPrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	n := 1 << 16
	x := make([]float64, n)
	for i := range x {
		if rng.Intn(2) == 0 {
			x[i] = 1
		}
	}
	exact := make([]int64, 3)
	for p := range exact {
		for i := 0; i+p < n; i++ {
			exact[p] += int64(x[i] * x[i+p])
		}
	}
	for _, size := range []int{BandSize(n, 2), 4} {
		raw := rawAutocorr(PlanFor(size), x)
		worst := 0.0
		for _, v := range raw {
			worst = math.Max(worst, math.Abs(v-math.Round(v)))
		}
		if worst > 1e-3 {
			t.Fatalf("plan %d (%d blocks): count error %g too close to 0.5", size, 2*n/size, worst)
		}
		for p, want := range exact {
			if got := int64(math.Round(raw[p])); got != want {
				t.Fatalf("plan %d lag %d: %d, direct %d", size, p, got, want)
			}
		}
	}
}
