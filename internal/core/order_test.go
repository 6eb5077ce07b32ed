package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"periodica/internal/alphabet"
	"periodica/internal/series"
)

// TestMinQualifyingF2MatchesBruteForce checks the integer threshold against
// a search of qualifies over every F2, at thresholds that land exactly on an
// attainable confidence and one ulp to either side of it.
func TestMinQualifyingF2MatchesBruteForce(t *testing.T) {
	for pairs := 1; pairs <= 300; pairs++ {
		psis := []float64{1e-9, 1}
		for f := 1; f <= pairs; f++ {
			psi := float64(f) / float64(pairs)
			psis = append(psis, psi, math.Nextafter(psi, 0), math.Nextafter(psi, 2))
		}
		for _, psi := range psis {
			want := pairs + 1
			for f := 1; f <= pairs; f++ {
				if qualifies(f, pairs, psi) {
					want = f
					break
				}
			}
			if got := minQualifyingF2(pairs, psi); got != want {
				t.Fatalf("pairs=%d psi=%v: minQualifyingF2 = %d, want %d", pairs, psi, got, want)
			}
		}
	}
}

// TestPeriodBarMatchesDefinition checks that a period's bar accepts exactly
// the (phase, F2) cells the Definition-1 test accepts, MinPairs included,
// and carries each phase's pair count.
func TestPeriodBarMatchesDefinition(t *testing.T) {
	for _, n := range []int{7, 64, 100, 257} {
		for p := 1; p < n; p += 1 + p/8 {
			for _, minPairs := range []int{1, 2, 5} {
				for _, psi := range []float64{1e-9, 0.3, 2.0 / 3, 0.75, 1} {
					bar := newPeriodBar(n, p, minPairs, psi)
					for l := 0; l < p; l++ {
						pairs := pairsAt(n, p, l)
						j := 0
						if l >= bar.split {
							j = 1
						}
						if bar.pairs[j] != pairs {
							t.Fatalf("n=%d p=%d l=%d: bar pairs %d, want %d", n, p, l, bar.pairs[j], pairs)
						}
						for f2 := 0; f2 <= pairs; f2++ {
							want := pairs >= minPairs && f2 > 0 && qualifies(f2, pairs, psi)
							if got := f2 >= bar.minF2[j]; got != want {
								t.Fatalf("n=%d p=%d l=%d minPairs=%d psi=%v F2=%d: bar accepts %v, want %v",
									n, p, l, minPairs, psi, f2, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestResolveBoundKeepsLateQualifier pins resolve's cutoff at its edges. At
// n = 80, p = 7, ψ = 0.5 the bar is split 3, pairs {11, 10}, minimum F2
// {6, 5}. Symbol a matches exactly 5 of phase 5's 10 pairs, all in the last
// rows, and nothing else matches at lag 7. After the first word a has 4
// matches and 9 pairs of every phase are counted: 4 is exactly the floor
// min(6−2, 5−1), so the row must go on. After the second, 18 pairs are
// counted, past both pair counts: only the clamp at zero keeps the floor at
// 5 rather than 13. The row must complete and emit (a, 7, 5).
func TestResolveBoundKeepsLateQualifier(t *testing.T) {
	const n, p, l = 80, 7, 5
	const psi = 0.5
	text := make([]byte, n)
	for i := range text {
		text[i] = "bc"[i%2] // neighbours at an odd lag never match
		if i%p == l && i >= l+5*p {
			text[i] = 'a'
		}
	}
	s := series.FromString(string(text))
	a, _ := s.Alphabet().Index("a")
	bar := newPeriodBar(n, p, 1, psi)
	if bar.split != 3 || bar.pairs != [2]int{11, 10} || bar.minF2 != [2]int{6, 5} {
		t.Fatalf("bar = %+v, want split 3, pairs {11 10}, minF2 {6 5}", bar)
	}
	want := periodicity(a, p, l, bar.minF2[1], bar.pairs[1])

	det := newDetector(s)
	var got []SymbolPeriodicity
	det.detect(p, psi, func(sp SymbolPeriodicity) { got = append(got, sp) })
	if !reflect.DeepEqual(got, []SymbolPeriodicity{want}) {
		t.Fatalf("detect(%d, %v) = %+v, want only %+v", p, psi, got, want)
	}
	if !reflect.DeepEqual(det.live, []int32{int32(a)}) {
		t.Fatalf("completed rows %v, want a's alone", det.live)
	}
	naive, err := mine(s, Options{Threshold: psi, Engine: EngineNaive})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(naive.Periodicities, want) {
		t.Fatalf("naive mine lacks %+v", want)
	}
	for _, eng := range []Engine{EngineBitset, EngineFFT} {
		res, err := mine(s, Options{Threshold: psi, Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Periodicities, naive.Periodicities) {
			t.Fatalf("%v: periodicities differ from the naive engine's", eng)
		}
	}
}

// comparePatterns is the result order of multi-symbol patterns: by period,
// then descending support, then compareFixed. The miner produces it without
// a comparator sort; this is the oracle it is checked against.
func comparePatterns(a, b Pattern) int {
	if c := cmp.Compare(a.Period, b.Period); c != 0 {
		return c
	}
	if c := cmp.Compare(b.Support, a.Support); c != 0 {
		return c
	}
	return compareFixed(a.Fixed, b.Fixed)
}

// checkCanonical fails unless the result's periodicities, periods and
// patterns are each strictly in canonical order.
func checkCanonical(t *testing.T, label string, res *Result) {
	t.Helper()
	for i := 1; i < len(res.Periodicities); i++ {
		if compareCanonical(res.Periodicities[i-1], res.Periodicities[i]) >= 0 {
			t.Fatalf("%s: periodicities %d and %d out of order: %v, %v",
				label, i-1, i, res.Periodicities[i-1], res.Periodicities[i])
		}
	}
	var periods []int
	for _, sp := range res.Periodicities {
		if len(periods) == 0 || periods[len(periods)-1] != sp.Period {
			periods = append(periods, sp.Period)
		}
	}
	if !reflect.DeepEqual(res.Periods, periods) {
		t.Fatalf("%s: Periods %v, want %v", label, res.Periods, periods)
	}
	for i := 1; i < len(res.Patterns); i++ {
		if comparePatterns(res.Patterns[i-1], res.Patterns[i]) >= 0 {
			t.Fatalf("%s: patterns %d and %d out of order: %+v, %+v",
				label, i-1, i, res.Patterns[i-1], res.Patterns[i])
		}
	}
}

// orderFixture is a noisy period-6 series over four symbols: at a low
// threshold it has several symbols per position and many multi-symbol
// patterns of equal count, so both orders have ties to break.
func orderFixture(n int) *series.Series {
	rng := rand.New(rand.NewSource(21))
	motif := []uint16{0, 1, 0, 2, 3, 1}
	idx := make([]uint16, n)
	for i := range idx {
		idx[i] = motif[i%len(motif)]
		if rng.Intn(4) == 0 {
			idx[i] = uint16(rng.Intn(4))
		}
	}
	return series.FromIndices(alphabet.Letters(4), idx)
}

// TestResultsInCanonicalOrder checks that every engine, serial and sharded
// over workers, and the shard-assembled path produce periodicities and
// patterns already in canonical order, and all the same result.
func TestResultsInCanonicalOrder(t *testing.T) {
	s := orderFixture(600)
	opt := Options{Threshold: 0.4, MaxPatternPeriod: 24}
	var want *Result
	for _, eng := range []Engine{EngineNaive, EngineBitset, EngineFFT} {
		for _, workers := range []int{1, 2} {
			o := opt
			o.Engine = eng
			res, err := MineWorkers(context.Background(), s, o, workers)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("engine=%v workers=%d", eng, workers)
			checkCanonical(t, label, res)
			if want == nil {
				want = res
				if len(want.Patterns) < 100 || len(want.Periodicities) < 100 {
					t.Fatalf("fixture too sparse: %d periodicities, %d patterns",
						len(want.Periodicities), len(want.Patterns))
				}
			} else if !reflect.DeepEqual(res, want) {
				t.Fatalf("%s: result differs from engine=naive workers=1", label)
			}
		}
	}
	sharded := mineViaShards(t, s, opt, 5)
	checkCanonical(t, "shard-assembled", sharded)
	if !reflect.DeepEqual(sharded, want) {
		t.Fatal("shard-assembled result differs from the local mine")
	}
}

// TestTruncatedPatternsKeepPrefix checks a mine cut at MaxPatterns: it keeps
// the first MaxPatterns patterns in enumeration order (period, then
// compareFixed) and reports them in result order.
func TestTruncatedPatternsKeepPrefix(t *testing.T) {
	s := orderFixture(600)
	opt := Options{Threshold: 0.4, MaxPatternPeriod: 24}
	full, err := mine(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if full.PatternsTruncated {
		t.Fatal("untruncated mine reports truncation")
	}
	byDFS := slices.Clone(full.Patterns)
	slices.SortFunc(byDFS, func(a, b Pattern) int {
		if c := cmp.Compare(a.Period, b.Period); c != 0 {
			return c
		}
		return compareFixed(a.Fixed, b.Fixed)
	})
	for _, limit := range []int{1, 7, len(full.Patterns) / 2, len(full.Patterns) - 1} {
		want := slices.Clone(byDFS[:limit])
		slices.SortFunc(want, comparePatterns)
		o := opt
		o.MaxPatterns = limit
		for _, workers := range []int{1, 2} {
			res, err := MineWorkers(context.Background(), s, o, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !res.PatternsTruncated {
				t.Fatalf("MaxPatterns=%d: not truncated", limit)
			}
			if !reflect.DeepEqual(res.Patterns, want) {
				t.Fatalf("MaxPatterns=%d workers=%d: patterns are not the enumeration prefix in result order", limit, workers)
			}
		}
	}
}
