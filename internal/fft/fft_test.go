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

func TestAutocorrelateCountsPairMatchesSingles(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{1, 2, 7, 64, 1000} {
		x1 := make([]float64, n)
		x2 := make([]float64, n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				x1[i] = 1
			}
			if rng.Intn(4) == 0 {
				x2[i] = 1
			}
		}
		got1, got2 := pairCounts(x1, x2, 0)
		want1 := AutocorrelateCounts(x1)
		want2 := AutocorrelateCounts(x2)
		for p := 0; p < n; p++ {
			if got1[p] != want1[p] || got2[p] != want2[p] {
				t.Fatalf("n=%d p=%d: pair (%d,%d) vs singles (%d,%d)",
					n, p, got1[p], got2[p], want1[p], want2[p])
			}
		}
	}
}

// pairCounts runs the pair entry point on fresh output slices.
func pairCounts(x1, x2 []float64, workers int) ([]int64, []int64) {
	out1, out2 := make([]int64, len(x1)), make([]int64, len(x2))
	PlanFor(NextPow2(2*len(x1))).AutocorrelateCountsPairInto(x1, x2, out1, out2, workers)
	return out1, out2
}

func TestAutocorrelateCountsPairEmpty(t *testing.T) {
	// An empty pair is a no-op on any plan, even one too small for input.
	PlanFor(1).AutocorrelateCountsPairInto(nil, nil, nil, nil, 0)
	a, b := pairCounts(nil, nil, 1)
	if len(a) != 0 || len(b) != 0 {
		t.Fatal("empty pair: want empty results")
	}
}

func TestAutocorrelateCountsPairLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch: want panic")
		}
	}()
	PlanFor(8).AutocorrelateCountsPairInto(make([]float64, 3), make([]float64, 4),
		make([]int64, 3), make([]int64, 4), 1)
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
