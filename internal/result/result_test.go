package result

import (
	"cmp"
	"context"
	"slices"
	"testing"

	"periodica/internal/alphabet"
	"periodica/internal/core"
	"periodica/internal/series"
)

func pin(pairs ...int) []core.FixedSymbol {
	var out []core.FixedSymbol
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, core.FixedSymbol{Position: pairs[i], Symbol: pairs[i+1]})
	}
	return out
}

// definition2 is the Definition-2 pattern of a periodicity: its symbol alone
// at its position, with its confidence as support.
func definition2(sp core.SymbolPeriodicity) core.Pattern {
	return core.Pattern{Period: sp.Period, Fixed: pin(sp.Position, sp.Symbol), Support: sp.Confidence}
}

// checkTexts converts res over alpha and checks every single-symbol pattern
// against the Definition-2 pattern of its periodicity, and every text
// against the per-pattern renderer.
func checkTexts(t *testing.T, alpha *alphabet.Alphabet, res *core.Result) {
	t.Helper()
	out := FromCore(alpha, res, false)
	var singles []core.Pattern
	for _, sp := range res.Periodicities {
		singles = append(singles, definition2(sp))
	}
	lists := []struct {
		name string
		in   []core.Pattern
		out  []Pattern
	}{
		{"single-symbol", singles, out.SingleSymbolPatterns},
		{"multi-symbol", res.Patterns, out.Patterns},
	}
	for _, l := range lists {
		if len(l.out) != len(l.in) {
			t.Fatalf("%s: converted %d patterns, want %d", l.name, len(l.out), len(l.in))
		}
		for i, pt := range l.in {
			if want := pt.Render(alpha); l.out[i].Text != want {
				t.Errorf("%s pattern %d: Text %q, Render %q", l.name, i, l.out[i].Text, want)
			}
			if l.out[i].Period != pt.Period || l.out[i].Support != pt.Support {
				t.Errorf("%s pattern %d: period %d support %v, want %d and %v",
					l.name, i, l.out[i].Period, l.out[i].Support, pt.Period, pt.Support)
			}
		}
	}
}

// TestFromCoreTextsMatchRender: every single-symbol text FromCore slices
// out of a symbol's ruler is what Render gives for the Definition-2 pattern
// of its periodicity, and every multi-symbol text is what Render gives
// pattern by pattern.
func TestFromCoreTextsMatchRender(t *testing.T) {
	pats := []core.Pattern{
		{Period: 1, Fixed: pin(0, 1), Support: 0.9},                   // period 1
		{Period: 5, Fixed: pin(0, 0, 4, 2), Support: 0.8},             // first and last position
		{Period: 3, Fixed: pin(0, 2, 1, 0, 2, 1), Support: 0.7},       // no don't-cares
		{Period: 200, Fixed: pin(0, 1, 130, 0, 199, 2), Support: 0.6}, // runs longer than one bulk write
		{Period: 4, Fixed: pin(2, 1), Support: 0.5},
	}
	// Symbol 0 is periodic at every position of every period from 2 up to
	// its largest, 9; symbol 1 at period 1, at the first and last positions
	// of period 5, and at period 200, whose ruler is longer than one bulk
	// write; symbol 2 once.
	var pers []core.SymbolPeriodicity
	add := func(k, p int, ls ...int) {
		for _, l := range ls {
			pers = append(pers, core.SymbolPeriodicity{Symbol: k, Period: p, Position: l,
				F2: p + l, Pairs: 2*p + l + 1, Confidence: float64(p+l) / float64(2*p+l+1)})
		}
	}
	for p := 2; p <= 9; p++ {
		for l := 0; l < p; l++ {
			add(0, p, l)
		}
	}
	add(1, 1, 0)
	add(1, 5, 0, 4)
	add(1, 200, 0, 130, 199)
	add(2, 4, 2)
	slices.SortFunc(pers, func(a, b core.SymbolPeriodicity) int {
		return cmp.Or(cmp.Compare(a.Period, b.Period), cmp.Compare(a.Position, b.Position), cmp.Compare(a.Symbol, b.Symbol))
	})
	for _, alpha := range []*alphabet.Alphabet{
		alphabet.Letters(3),
		alphabet.MustNew("hi", "lo", "mid"),
		alphabet.MustNew("α", "b", "ζη"),
		alphabet.MustNew("é", "s12", "z"),
	} {
		t.Run(alpha.String(), func(t *testing.T) {
			checkTexts(t, alpha, &core.Result{Periodicities: pers, Patterns: pats})
		})
	}

	t.Run("mined", func(t *testing.T) {
		s := series.FromString("abcabbabcbabcabcabbacbabcabcbbcabcabc")
		res, err := core.MineContext(context.Background(), s, core.Options{Threshold: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Periodicities) == 0 || len(res.Patterns) == 0 {
			t.Fatal("fixture mined no periodicities or no multi-symbol patterns; the test is vacuous")
		}
		checkTexts(t, s.Alphabet(), res)
	})

	t.Run("empty", func(t *testing.T) {
		out := FromCore(alphabet.Letters(2), &core.Result{}, false)
		if out.Periodicities != nil || out.SingleSymbolPatterns != nil || out.Patterns != nil {
			t.Fatalf("empty result converted to non-nil lists: %+v", out)
		}
	})
}

// syntheticResult returns a result with count periodicities and count
// multi-symbol patterns, all at period 40.
func syntheticResult(count int) *core.Result {
	res := &core.Result{}
	for i := 0; i < count; i++ {
		sp := core.SymbolPeriodicity{Symbol: i % 3, Period: 40, Position: i % 40, F2: 3, Pairs: 4, Confidence: 0.75}
		res.Periodicities = append(res.Periodicities, sp)
		res.Patterns = append(res.Patterns, core.Pattern{Period: 40, Fixed: pin(0, 0, 1+i%39, 1), Support: 0.75})
	}
	return res
}

// TestFromCoreAllocsIndependentOfPatternCount: converting a result
// allocates a fixed number of times, not once per pattern.
func TestFromCoreAllocsIndependentOfPatternCount(t *testing.T) {
	alpha := alphabet.Letters(3)
	allocs := map[int]float64{}
	for _, count := range []int{10, 1000} {
		res := syntheticResult(count)
		allocs[count] = testing.AllocsPerRun(20, func() { FromCore(alpha, res, false) })
	}
	if d := allocs[1000] - allocs[10]; d > 2 || d < -2 {
		t.Fatalf("FromCore allocates %v times at 10 patterns and %v at 1000; want the same within 2",
			allocs[10], allocs[1000])
	}
}
