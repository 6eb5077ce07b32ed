package trends

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"periodica/internal/gen"
	"periodica/internal/series"
)

func TestExactMatchesNaiveHamming(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		n := rng.Intn(200) + 20
		idx := make([]uint16, n)
		for i := range idx {
			idx[i] = uint16(rng.Intn(4))
		}
		s, err := series.New(seriesAlpha(4), toInts(idx))
		if err != nil {
			t.Fatal(err)
		}
		r, err := Exact(s, 0)
		if err != nil {
			t.Fatal(err)
		}
		for p := 1; p <= n/2; p++ {
			if got, want := r.Distances[p], float64(HammingDistanceNaive(s, p)); got != want {
				t.Fatalf("n=%d D(%d) = %v, want %v", n, p, got, want)
			}
		}
	}
}

func toInts(u []uint16) []int {
	out := make([]int, len(u))
	for i, v := range u {
		out[i] = int(v)
	}
	return out
}

func TestExactPerfectPeriodHasZeroDistance(t *testing.T) {
	s, _, err := gen.Generate(gen.Config{Length: 500, Period: 25, Sigma: 10, Dist: gen.Uniform, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Exact(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{25, 50, 75} {
		if r.Distances[p] != 0 {
			t.Fatalf("D(%d) = %v on inerrant data, want 0", p, r.Distances[p])
		}
	}
	if r.Rank(25) != 1 {
		t.Fatalf("rank(25) = %d, want 1 (ties broken by smaller period)", r.Rank(25))
	}
	if r.Confidence(25) != 1 {
		t.Fatalf("confidence(25) = %v, want 1", r.Confidence(25))
	}
}

func TestConfidenceIsNormalizedRank(t *testing.T) {
	s, _, err := gen.Generate(gen.Config{Length: 300, Period: 20, Sigma: 8, Dist: gen.Uniform,
		Noise: gen.Replacement, NoiseRatio: 0.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Exact(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	total := r.MaxPeriod - r.MinPeriod + 1
	seen := map[int]bool{}
	for p := r.MinPeriod; p <= r.MaxPeriod; p++ {
		rank := r.Rank(p)
		if rank < 1 || rank > total || seen[rank] {
			t.Fatalf("rank(%d) = %d invalid or duplicated", p, rank)
		}
		seen[rank] = true
		want := float64(total-rank) / float64(total-1)
		if math.Abs(r.Confidence(p)-want) > 1e-12 {
			t.Fatalf("confidence(%d) = %v, want %v", p, r.Confidence(p), want)
		}
	}
	if r.Confidence(0) != 0 || r.Rank(r.MaxPeriod+1) != 0 {
		t.Fatal("out-of-range period not handled")
	}
}

func TestCandidatesOrderedByDistance(t *testing.T) {
	s, _, err := gen.Generate(gen.Config{Length: 400, Period: 16, Sigma: 6, Dist: gen.Uniform,
		Noise: gen.Replacement, NoiseRatio: 0.1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Exact(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	cands := r.Candidates()
	if len(cands) != r.MaxPeriod-r.MinPeriod+1 {
		t.Fatalf("candidate count %d", len(cands))
	}
	for i := 1; i < len(cands); i++ {
		if r.Distances[cands[i-1]] > r.Distances[cands[i]] {
			t.Fatalf("candidates not sorted by distance at %d", i)
		}
	}
	// The true period must be among the leading candidates under light noise.
	for i, p := range cands[:10] {
		if p%16 == 0 {
			return
		}
		_ = i
	}
	t.Fatalf("no multiple of 16 in top-10 candidates %v", cands[:10])
}

func TestLargePeriodBiasOnNoisyData(t *testing.T) {
	// §4.1 / Fig. 4(b): the trends algorithm favors the higher multiples of
	// the true period on noisy data, because the absolute distance shrinks
	// with the overlap. Verify the distances at multiples decrease.
	s, _, err := gen.Generate(gen.Config{Length: 4000, Period: 25, Sigma: 10, Dist: gen.Uniform,
		Noise: gen.Replacement, NoiseRatio: 0.3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Exact(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := r.Distances[25], r.Distances[50]
	if d2 >= d1 {
		t.Fatalf("D(50)=%v not below D(25)=%v: large-period bias absent", d2, d1)
	}
}

func TestSketchedIsUnbiasedEnoughToRankTruePeriodHigh(t *testing.T) {
	s, _, err := gen.Generate(gen.Config{Length: 2000, Period: 25, Sigma: 10, Dist: gen.Uniform,
		Noise: gen.Replacement, NoiseRatio: 0.1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Sketched(s, 0, 16, 99)
	if err != nil {
		t.Fatal(err)
	}
	bestMultiple := false
	for _, p := range r.Candidates()[:20] {
		if p%25 == 0 {
			bestMultiple = true
			break
		}
	}
	if !bestMultiple {
		t.Fatalf("no multiple of 25 in sketched top-20: %v", r.Candidates()[:20])
	}
}

func TestSketchedEstimateCloseToExact(t *testing.T) {
	s, _, err := gen.Generate(gen.Config{Length: 1000, Period: 20, Sigma: 8, Dist: gen.Uniform,
		Noise: gen.Replacement, NoiseRatio: 0.2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Exact(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := Sketched(s, 0, 64, 123)
	if err != nil {
		t.Fatal(err)
	}
	// Mean relative error over periods with substantial distance.
	var relSum float64
	var count int
	for p := 1; p <= exact.MaxPeriod; p++ {
		if exact.Distances[p] < 50 {
			continue
		}
		relSum += math.Abs(sk.Distances[p]-exact.Distances[p]) / exact.Distances[p]
		count++
	}
	if count == 0 {
		t.Fatal("no periods with substantial distance")
	}
	if mean := relSum / float64(count); mean > 0.25 {
		t.Fatalf("mean relative sketch error %v too large", mean)
	}
}

func TestSketchedDefaultRepetitions(t *testing.T) {
	s, _, err := gen.Generate(gen.Config{Length: 256, Period: 8, Sigma: 4, Dist: gen.Uniform, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Sketched(s, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := Sketched(s, 0, -1, 1); err == nil {
		t.Fatal("negative repetitions: want error")
	}
}

func TestConfidenceConsistentWithDistancesProperty(t *testing.T) {
	// Smaller distance must never yield a smaller confidence, and
	// candidates must enumerate every period exactly once.
	f := func(seed int64, ln uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(ln)%200 + 20
		idx := make([]uint16, n)
		for i := range idx {
			idx[i] = uint16(rng.Intn(4))
		}
		s, err := series.New(seriesAlpha(4), toInts(idx))
		if err != nil {
			return false
		}
		r, err := Exact(s, 0)
		if err != nil {
			return false
		}
		cands := r.Candidates()
		seen := map[int]bool{}
		for _, p := range cands {
			if seen[p] {
				return false
			}
			seen[p] = true
		}
		if len(cands) != r.MaxPeriod-r.MinPeriod+1 {
			return false
		}
		for a := r.MinPeriod; a <= r.MaxPeriod; a++ {
			for b := a + 1; b <= r.MaxPeriod; b++ {
				if r.Distances[a] < r.Distances[b] && r.Confidence(a) < r.Confidence(b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidInputs(t *testing.T) {
	one, err := series.New(seriesAlpha(2), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Exact(one, 0); err == nil {
		t.Fatal("n=1: want error")
	}
	ok, err := series.New(seriesAlpha(2), []int{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Exact(ok, 10); err == nil {
		t.Fatal("maxPeriod ≥ n: want error")
	}
}

func TestSketchedExactTiesOnInerrantData(t *testing.T) {
	// A correlation of a ±1 projection is an integer, so on an inerrant
	// series every multiple of P has D̂(kP) = 0 exactly and the tie breaks
	// by smaller period. Unrounded FFT correlations leave round-off of
	// ~1e-12 on some multiples, which pushed P below them in the ranking.
	s, _, err := gen.Generate(gen.Config{Length: 50000, Period: 25, Sigma: 10, Dist: gen.Uniform, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Sketched(s, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for p := 25; p <= r.MaxPeriod; p += 25 {
		if r.Distances[p] != 0 {
			t.Fatalf("D̂(%d) = %g on inerrant data, want exactly 0", p, r.Distances[p])
		}
	}
	if got := r.Rank(25); got != 1 {
		t.Fatalf("Rank(25) = %d, want 1", got)
	}
}

// HammingDistanceNaive is the definitional D(p), used to validate Exact.
func HammingDistanceNaive(s *series.Series, p int) int {
	d := 0
	for i := 0; i+p < s.Len(); i++ {
		if s.At(i) != s.At(i+p) {
			d++
		}
	}
	return d
}
