package core

import (
	"testing"

	"periodica/internal/alphabet"
	"periodica/internal/series"
)

func fixed(pairs ...int) []FixedSymbol {
	var out []FixedSymbol
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, FixedSymbol{Position: pairs[i], Symbol: pairs[i+1]})
	}
	return out
}

func TestFilterMaximalDropsSubsumed(t *testing.T) {
	patterns := []Pattern{
		{Period: 3, Fixed: fixed(0, 0)},       // a**   — subsumed by ab*
		{Period: 3, Fixed: fixed(0, 0, 1, 1)}, // ab*   — maximal
		{Period: 3, Fixed: fixed(1, 1)},       // *b*   — subsumed by ab*
		{Period: 3, Fixed: fixed(2, 2)},       // **c   — maximal (c not in ab*)
		{Period: 4, Fixed: fixed(0, 0)},       // different period: kept
		{Period: 4, Fixed: fixed(0, 1, 1, 1)}, // different symbol at 0: kept
	}
	out := FilterMaximal(patterns)
	if len(out) != 4 {
		t.Fatalf("kept %d patterns, want 4: %+v", len(out), out)
	}
	alpha := alphabet.Letters(3)
	want := map[string]bool{"ab*": true, "**c": true, "a***": true, "bb**": true}
	for _, pt := range out {
		if !want[pt.Render(alpha)] {
			t.Fatalf("unexpected survivor %s", pt.Render(alpha))
		}
	}
}

func TestFilterMaximalSameFixedSetKept(t *testing.T) {
	// Equal patterns don't subsume each other (strict superset required).
	patterns := []Pattern{
		{Period: 2, Fixed: fixed(0, 0)},
		{Period: 2, Fixed: fixed(0, 0)},
	}
	if got := FilterMaximal(patterns); len(got) != 2 {
		t.Fatalf("kept %d, want 2", len(got))
	}
}

func TestFilterMaximalOnMinedOutput(t *testing.T) {
	s := series.FromString("abcabcabcabcabcabcabcabc")
	// Definition 3's support tops out at (⌊n/p⌋−1)/⌊n/p⌋ = 7/8 on perfect
	// data (the final occurrence has no successor to match), so mine at 0.8.
	res, err := mine(s, Options{Threshold: 0.8, MinPeriod: 3, MaxPeriod: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Patterns ab*, a*c, *bc and abc all qualify; only abc is maximal.
	out := FilterMaximal(res.Patterns)
	if len(out) != 1 || out[0].Render(s.Alphabet()) != "abc" {
		t.Fatalf("maximal patterns = %v, want [abc]", renderAll(out, s))
	}
}

func TestSymbolAt(t *testing.T) {
	pt := Pattern{Period: 4, Fixed: fixed(1, 2, 3, 0)}
	if pt.SymbolAt(0) != DontCare || pt.SymbolAt(2) != DontCare {
		t.Fatal("don't-care positions wrong")
	}
	if pt.SymbolAt(1) != 2 || pt.SymbolAt(3) != 0 {
		t.Fatal("fixed positions wrong")
	}
}

func TestSubsumesOrdering(t *testing.T) {
	big := Pattern{Period: 5, Fixed: fixed(0, 1, 2, 2, 4, 0)}
	small := Pattern{Period: 5, Fixed: fixed(2, 2, 4, 0)}
	if !subsumes(big, small) {
		t.Fatal("superset not recognized")
	}
	other := Pattern{Period: 5, Fixed: fixed(2, 1)}
	if subsumes(big, other) {
		t.Fatal("different symbol treated as subsumed")
	}
}
