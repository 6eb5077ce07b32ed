package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"periodica/internal/alphabet"
	"periodica/internal/series"
)

// mine and detectCandidates are the serial, uncancelled calls most tests
// compare against.
func mine(s *series.Series, opt Options) (*Result, error) {
	return MineContext(context.Background(), s, opt)
}

func detectCandidates(s *series.Series, psi float64, maxPeriod int) ([]CandidatePeriod, error) {
	return DetectCandidatesContext(context.Background(), s, psi, maxPeriod)
}

func find(res *Result, symbol, period, position int) (SymbolPeriodicity, bool) {
	for _, sp := range res.Periodicities {
		if sp.Symbol == symbol && sp.Period == period && sp.Position == position {
			return sp, true
		}
	}
	return SymbolPeriodicity{}, false
}

func TestMineRunningExample(t *testing.T) {
	// Paper §2.2: in T = abcabbabcb, symbol a is periodic with period 3 at
	// position 0 with confidence 2/3, and b with period 3 at position 1 with
	// confidence 1; b is also periodic with period 4 (positions 1,5,9).
	s := series.FromString("abcabbabcb")
	a, _ := s.Alphabet().Index("a")
	b, _ := s.Alphabet().Index("b")
	res, err := mine(s, Options{Threshold: 2.0 / 3.0, Engine: EngineNaive})
	if err != nil {
		t.Fatal(err)
	}

	sp, ok := find(res, a, 3, 0)
	if !ok {
		t.Fatalf("missing periodicity (a,3,0); got %+v", res.Periodicities)
	}
	if sp.F2 != 2 || sp.Pairs != 3 {
		t.Fatalf("(a,3,0): F2=%d Pairs=%d, want 2 and 3", sp.F2, sp.Pairs)
	}
	if sp.Confidence < 0.666 || sp.Confidence > 0.667 {
		t.Fatalf("(a,3,0) confidence = %v, want 2/3", sp.Confidence)
	}

	sp, ok = find(res, b, 3, 1)
	if !ok || sp.Confidence != 1 {
		t.Fatalf("(b,3,1): got %+v ok=%v, want confidence 1", sp, ok)
	}
	if _, ok = find(res, b, 4, 1); !ok {
		t.Fatal("missing periodicity (b,4,1)")
	}
}

func TestMinePatternsRunningExample(t *testing.T) {
	// Paper §2.3 and §3.2: with S_{3,0}={a}, S_{3,1}={b}, the candidate
	// pattern ab* has support |W′_3|/⌊10/3⌋ = 2/3.
	s := series.FromString("abcabbabcb")
	res, err := mine(s, Options{Threshold: 2.0 / 3.0, Engine: EngineBitset})
	if err != nil {
		t.Fatal(err)
	}
	var got *Pattern
	for i, pt := range res.Patterns {
		if pt.Period == 3 && pt.Render(s.Alphabet()) == "ab*" {
			got = &res.Patterns[i]
		}
	}
	if got == nil {
		t.Fatalf("pattern ab* not found; patterns: %v", renderAll(res.Patterns, s))
	}
	if got.Count != 2 {
		t.Fatalf("ab* count = %d, want 2", got.Count)
	}
	if got.Support < 0.666 || got.Support > 0.667 {
		t.Fatalf("ab* support = %v, want 2/3", got.Support)
	}
}

func renderAll(pts []Pattern, s *series.Series) []string {
	var out []string
	for _, pt := range pts {
		out = append(out, pt.Render(s.Alphabet()))
	}
	return out
}

func TestSingleSymbolPatterns(t *testing.T) {
	s := series.FromString("abcabbabcb")
	res, err := mine(s, Options{Threshold: 2.0 / 3.0, Engine: EngineNaive})
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]float64{}
	for _, sp := range res.Periodicities {
		if pt := singlePattern(sp); pt.Period == 3 {
			found[pt.Render(s.Alphabet())] = pt.Support
		}
	}
	if sup, ok := found["a**"]; !ok || sup < 0.66 || sup > 0.67 {
		t.Fatalf("single pattern a** support = %v (ok=%v), want 2/3", sup, ok)
	}
	if sup, ok := found["*b*"]; !ok || sup != 1 {
		t.Fatalf("single pattern *b* support = %v (ok=%v), want 1", sup, ok)
	}
}

func mineEq(t *testing.T, s *series.Series, psi float64) *Result {
	t.Helper()
	var results []*Result
	for _, eng := range []Engine{EngineNaive, EngineBitset, EngineFFT} {
		res, err := mine(s, Options{Threshold: psi, Engine: eng})
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		results = append(results, res)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0].Periodicities, results[i].Periodicities) {
			t.Fatalf("engines disagree on periodicities:\nnaive: %+v\nother: %+v",
				results[0].Periodicities, results[i].Periodicities)
		}
		if !reflect.DeepEqual(results[0].Patterns, results[i].Patterns) {
			t.Fatalf("engines disagree on patterns")
		}
		if !reflect.DeepEqual(results[0].Periods, results[i].Periods) {
			t.Fatalf("engines disagree on periods: %v vs %v", results[0].Periods, results[i].Periods)
		}
	}
	return results[0]
}

func TestEnginesAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		n := rng.Intn(200) + 20
		sigma := rng.Intn(4) + 2
		idx := make([]uint16, n)
		for i := range idx {
			idx[i] = uint16(rng.Intn(sigma))
		}
		s := series.FromIndices(alphabet.Letters(sigma), idx)
		for _, psi := range []float64{0.2, 0.5, 0.9} {
			mineEq(t, s, psi)
		}
	}
}

func TestEnginesAgreePeriodicWithNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	base := []uint16{0, 1, 2, 3, 1}
	idx := make([]uint16, 500)
	for i := range idx {
		idx[i] = base[i%len(base)]
		if rng.Float64() < 0.1 {
			idx[i] = uint16(rng.Intn(4))
		}
	}
	s := series.FromIndices(alphabet.Letters(4), idx)
	res := mineEq(t, s, 0.8)
	if _, ok := find(res, 0, 5, 0); !ok {
		t.Fatal("embedded period 5 for symbol a not detected at ψ=0.8")
	}
}

func TestPerfectlyPeriodicSeriesHasConfidenceOne(t *testing.T) {
	// A perfect repetition of "abcd" must yield confidence 1 at p = 4 and
	// every multiple, for every position.
	s := series.FromString("abcdabcdabcdabcdabcdabcd")
	for _, p := range []int{4, 8, 12} {
		if got := PeriodConfidence(s, p); got != 1 {
			t.Fatalf("PeriodConfidence(%d) = %v, want 1", p, got)
		}
	}
	if got := PeriodConfidence(s, 3); got == 1 {
		t.Fatal("PeriodConfidence(3) = 1 on pure period-4 data with distinct symbols")
	}
}

func TestMineValidatesOptions(t *testing.T) {
	s := series.FromString("abcabc")
	for _, opt := range []Options{
		{Threshold: 0},
		{Threshold: 1.5},
		{Threshold: 0.5, MinPeriod: 3, MaxPeriod: 2},
		{Threshold: 0.5, MaxPeriod: 100},
	} {
		if _, err := mine(s, opt); err == nil {
			t.Errorf("mine(%+v): want error", opt)
		}
	}
}

func TestMinPairsFiltersLowMassPeriodicities(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	idx := make([]uint16, 300)
	for i := range idx {
		idx[i] = uint16(rng.Intn(3))
	}
	s := series.FromIndices(alphabet.Letters(3), idx)
	base, err := mine(s, Options{Threshold: 0.5, Engine: EngineNaive, MaxPatternPeriod: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, minPairs := range []int{2, 5, 20} {
		var want []SymbolPeriodicity
		for _, sp := range base.Periodicities {
			if sp.Pairs >= minPairs {
				want = append(want, sp)
			}
		}
		for _, eng := range []Engine{EngineNaive, EngineBitset, EngineFFT} {
			got, err := mine(s, Options{Threshold: 0.5, Engine: eng, MinPairs: minPairs, MaxPatternPeriod: -1})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Periodicities, want) {
				t.Fatalf("engine=%v minPairs=%d: got %d periodicities, want %d",
					eng, minPairs, len(got.Periodicities), len(want))
			}
		}
	}
}

func TestMinPairsValidates(t *testing.T) {
	s := series.FromString("abcabc")
	if _, err := mine(s, Options{Threshold: 0.5, MinPairs: -1}); err == nil {
		t.Fatal("negative MinPairs: want error")
	}
}

func TestMaxPatternsTruncates(t *testing.T) {
	s := series.FromString("abababababababababab")
	res, err := mine(s, Options{Threshold: 0.1, MaxPatterns: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.PatternsTruncated {
		t.Fatal("expected truncation with MaxPatterns=1")
	}
	if len(res.Patterns) > 1 {
		t.Fatalf("got %d patterns, want ≤ 1", len(res.Patterns))
	}
}

func TestDisableMultiSymbolMining(t *testing.T) {
	s := series.FromString("abababababab")
	res, err := mine(s, Options{Threshold: 0.5, MaxPatternPeriod: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 0 {
		t.Fatalf("patterns mined despite MaxPatternPeriod<0: %d", len(res.Patterns))
	}
	if len(res.Periodicities) == 0 {
		t.Fatal("single-symbol periodicities missing")
	}
}

// bruteForcePatternSupport counts occurrences m where every fixed position of
// the pattern matches at both m·p+l and (m+1)·p+l.
func bruteForcePatternSupport(s *series.Series, pt Pattern) (int, float64) {
	n, p := s.Len(), pt.Period
	total := n / p
	count := 0
	for m := 0; m < total; m++ {
		all := true
		for _, f := range pt.Fixed {
			i := m*p + f.Position
			if i+p >= n || s.At(i) != f.Symbol || s.At(i+p) != f.Symbol {
				all = false
				break
			}
		}
		if all {
			count++
		}
	}
	return count, float64(count) / float64(total)
}

func TestPatternSupportMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		n := rng.Intn(150) + 30
		idx := make([]uint16, n)
		for i := range idx {
			idx[i] = uint16(rng.Intn(3))
		}
		s := series.FromIndices(alphabet.Letters(3), idx)
		res, err := mine(s, Options{Threshold: 0.3, Engine: EngineBitset})
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range res.Patterns {
			count, sup := bruteForcePatternSupport(s, pt)
			if count != pt.Count || sup != pt.Support {
				t.Fatalf("pattern %s p=%d: miner count=%d sup=%v, brute count=%d sup=%v",
					pt.Render(s.Alphabet()), pt.Period, pt.Count, pt.Support, count, sup)
			}
		}
	}
}

func TestPatternsMeetThresholdAndAreMultiSymbol(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	idx := make([]uint16, 200)
	for i := range idx {
		idx[i] = uint16(rng.Intn(3))
	}
	s := series.FromIndices(alphabet.Letters(3), idx)
	res, err := mine(s, Options{Threshold: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range res.Patterns {
		if pt.FixedSymbols() < 2 {
			t.Fatalf("pattern %v has %d fixed symbols", pt.Fixed, pt.FixedSymbols())
		}
		if pt.Support < 0.25 {
			t.Fatalf("pattern support %v below threshold", pt.Support)
		}
	}
}

func TestApriorPatternSupportBoundedBySinglesProperty(t *testing.T) {
	// Definition 3 / Apriori: a multi-symbol pattern's support cannot exceed
	// the Definition-2 support of any of its fixed symbols... with the caveat
	// that denominators differ (⌊n/p⌋ vs ⌈(n−l)/p⌉−1). Compare counts, which
	// are directly comparable: |W′_p| ≤ |W_{p,k,l}| for every fixed (k,l).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(120) + 40
		idx := make([]uint16, n)
		for i := range idx {
			idx[i] = uint16(rng.Intn(3))
		}
		s := series.FromIndices(alphabet.Letters(3), idx)
		res, err := mine(s, Options{Threshold: 0.3})
		if err != nil {
			return false
		}
		singles := map[[3]int]int{}
		for _, sp := range res.Periodicities {
			singles[[3]int{sp.Symbol, sp.Period, sp.Position}] = sp.F2
		}
		for _, pt := range res.Patterns {
			for _, f := range pt.Fixed {
				f2, ok := singles[[3]int{f.Symbol, pt.Period, f.Position}]
				if !ok || pt.Count > f2 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPatternRender(t *testing.T) {
	alpha := alphabet.Letters(3)
	pt := Pattern{Period: 4, Fixed: []FixedSymbol{{Position: 0, Symbol: 0}, {Position: 2, Symbol: 2}}}
	if got := pt.Render(alpha); got != "a*c*" {
		t.Fatalf("Render = %q, want a*c*", got)
	}
	if got := pt.FixedSymbols(); got != 2 {
		t.Fatalf("FixedSymbols = %d, want 2", got)
	}
}

func TestInterpretationDescribe(t *testing.T) {
	alpha := alphabet.Letters(5)
	sp := SymbolPeriodicity{Symbol: 1, Period: 24, Position: 7, F2: 360, Pairs: 450, Confidence: 0.8}
	it := Interpretation{
		LevelNames: []string{"zero", "under 200 transactions"},
		Unit:       "hour", Cycle: "day",
	}
	got := it.Describe(alpha, sp)
	want := "under 200 transactions occurs in hour 7 of the day for 80% of the cycles"
	if got != want {
		t.Fatalf("Describe = %q, want %q", got, want)
	}
	// Defaults: symbol letter, generic unit and cycle.
	bare := Interpretation{}.Describe(alpha, SymbolPeriodicity{Symbol: 0, Period: 7, Position: 3, Confidence: 0.5})
	if bare != "a occurs in position 3 of the 7-position cycle for 50% of the cycles" {
		t.Fatalf("bare Describe = %q", bare)
	}
}

func TestSymbolPeriodicityString(t *testing.T) {
	sp := SymbolPeriodicity{Symbol: 2, Period: 24, Position: 7, F2: 3, Pairs: 4, Confidence: 0.75}
	if got := sp.String(); got != "(s2, p=24, l=7, 3/4=0.75)" {
		t.Fatalf("String = %q", got)
	}
}

func TestEngineString(t *testing.T) {
	cases := map[Engine]string{EngineAuto: "auto", EngineNaive: "naive", EngineBitset: "bitset", EngineFFT: "fft", Engine(9): "Engine(9)"}
	for e, want := range cases {
		if e.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(e), e.String(), want)
		}
	}
}

func TestPeriodsListsDistinctSorted(t *testing.T) {
	s := series.FromString("abcabcabcabcabcabc")
	res, err := mine(s, Options{Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 6, 9}
	if !reflect.DeepEqual(res.Periods, want) {
		t.Fatalf("Periods = %v, want %v", res.Periods, want)
	}
}
