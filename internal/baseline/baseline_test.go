package baseline

import (
	"context"
	"testing"

	"periodica/internal/alphabet"
	"periodica/internal/core"
	"periodica/internal/gen"
	"periodica/internal/series"
)

// paperCounterexample builds a series where symbol a occurs at positions
// 0, 4, 5, 7, 10 — §1.1's example of a period (5) the distance-based
// algorithm cannot see, because the adjacent inter-arrivals are only
// 4, 1, 2 and 3.
func paperCounterexample(t *testing.T) *series.Series {
	t.Helper()
	idx := make([]int, 12)
	for i := range idx {
		idx[i] = 1 + i%2 // background noise symbols b, c
	}
	for _, pos := range []int{0, 4, 5, 7, 10} {
		idx[pos] = 0
	}
	s, err := series.New(alphabet.Letters(3), idx)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMaHellersteinMissesNonAdjacentPeriod(t *testing.T) {
	s := paperCounterexample(t)
	cands := MaHellerstein(s, MHConfig{Chi: 0.0001, MinCount: 1})
	if HasPeriod(cands, 0, 5) {
		t.Fatal("Ma-Hellerstein proposed period 5, which adjacent inter-arrivals cannot contain")
	}
	// Meanwhile the convolution miner detects it: a matches at lag 5 from
	// positions 0 and 5.
	res, err := core.MineContext(context.Background(), s, core.Options{Threshold: 0.9, MinPeriod: 5, MaxPeriod: 5})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sp := range res.Periodicities {
		if sp.Symbol == 0 && sp.Period == 5 && sp.Position == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("convolution miner missed period 5 at position 0")
	}
}

func TestMaHellersteinFindsAdjacentPeriod(t *testing.T) {
	s, _, err := gen.Generate(gen.Config{Length: 1000, Period: 10, Sigma: 10, Dist: gen.Uniform, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cands := MaHellerstein(s, MHConfig{})
	// Every symbol present in the pattern recurs every 10 positions (or a
	// divisor if repeated within the pattern); at least one symbol must
	// surface an adjacent-distance candidate that divides or equals 10.
	hit := false
	for _, list := range cands {
		for _, ps := range list {
			if 10%ps.Period == 0 || ps.Period%10 == 0 {
				hit = true
			}
		}
	}
	if !hit {
		t.Fatal("no period related to 10 among Ma-Hellerstein candidates")
	}
}

func TestMaHellersteinIgnoresRareSymbols(t *testing.T) {
	s, err := series.New(alphabet.Letters(2), []int{0, 0, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	cands := MaHellerstein(s, MHConfig{})
	if _, ok := cands[1]; ok {
		t.Fatal("candidate for symbol with a single occurrence")
	}
}

func TestBerberidisFindsEmbeddedPeriod(t *testing.T) {
	s, _, err := gen.Generate(gen.Config{Length: 2000, Period: 25, Sigma: 10, Dist: gen.Uniform,
		Noise: gen.Replacement, NoiseRatio: 0.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cands := Berberidis(s, BerberidisConfig{MinConfidence: 0.6})
	hit := false
	for _, periods := range cands {
		for _, p := range periods {
			if p == 25 {
				hit = true
			}
		}
	}
	if !hit {
		t.Fatalf("period 25 not among Berberidis candidates: %v", cands)
	}
}

func TestBerberidisSeesNonAdjacentPeriod(t *testing.T) {
	// Unlike Ma-Hellerstein, autocorrelation counts non-adjacent recurrences.
	s := paperCounterexample(t)
	cands := Berberidis(s, BerberidisConfig{MinConfidence: 0.4, MaxPeriod: 6})
	found := false
	for _, p := range cands[0] {
		if p == 5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("Berberidis missed period 5 for symbol a: %v", cands)
	}
}

func TestHanMineKnownPeriod(t *testing.T) {
	// abc repeated: at p=3 the pattern abc holds at every occurrence.
	s := series.FromString("abcabcabcabc")
	pats := HanMine(s, 3, 0.9, 100)
	if len(pats) == 0 {
		t.Fatal("no patterns mined")
	}
	full := ""
	for _, pt := range pats {
		if fixedCount(pt.Symbols) == 3 {
			full = pt.Render(s.Alphabet())
			if pt.Support != 1 {
				t.Fatalf("full pattern support %v, want 1", pt.Support)
			}
		}
	}
	if full != "abc" {
		t.Fatalf("full pattern %q, want abc", full)
	}
}

func TestHanMineSupportCounting(t *testing.T) {
	// p=2 over "abababacab..": occurrence-based counting.
	s := series.FromString("abababacab")
	pats := HanMine(s, 2, 0.5, 100)
	var ab *KnownPeriodPattern
	for i := range pats {
		if pats[i].Render(s.Alphabet()) == "ab" {
			ab = &pats[i]
		}
	}
	if ab == nil {
		t.Fatalf("pattern ab missing: %v", pats)
	}
	// Occurrences: ab ab ab ac ab → 4 of 5.
	if ab.Count != 4 || ab.Support != 0.8 {
		t.Fatalf("ab count=%d support=%v, want 4 and 0.8", ab.Count, ab.Support)
	}
}

func TestHanMineRespectsMinSup(t *testing.T) {
	s := series.FromString("abababacab")
	for _, pt := range HanMine(s, 2, 0.9, 100) {
		if pt.Support < 0.9 {
			t.Fatalf("pattern %v below minSup", pt)
		}
	}
}

func TestHanMineInvalidInputs(t *testing.T) {
	s := series.FromString("abc")
	if pats := HanMine(s, 0, 0.5, 10); pats != nil {
		t.Fatal("p=0 should mine nothing")
	}
	if pats := HanMine(s, 2, 0, 10); pats != nil {
		t.Fatal("minSup=0 should mine nothing")
	}
	if pats := HanMine(s, 2, 1.5, 10); pats != nil {
		t.Fatal("minSup>1 should mine nothing")
	}
}

func TestHanMineMaxPatterns(t *testing.T) {
	s := series.FromString("abababababab")
	pats := HanMine(s, 2, 0.1, 2)
	if len(pats) > 2 {
		t.Fatalf("got %d patterns, want ≤ 2", len(pats))
	}
}

func TestBerberidisMineMultiPass(t *testing.T) {
	s, _, err := gen.Generate(gen.Config{Length: 400, Period: 8, Sigma: 6, Dist: gen.Uniform, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pats, passes := BerberidisMine(s, BerberidisConfig{MinConfidence: 0.8, MaxPeriod: 40}, 0.8)
	if passes < 2 {
		t.Fatalf("multi-pass pipeline reported %d passes", passes)
	}
	if len(pats[8]) == 0 {
		t.Fatalf("no patterns at embedded period 8; periods mined: %v", keys(pats))
	}
}

func keys(m map[int][]KnownPeriodPattern) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestPeriodScoreString(t *testing.T) {
	got := PeriodScore{Period: 7, Count: 3, Score: 1.5}.String()
	if got != "p=7 count=3 score=1.50" {
		t.Fatalf("String = %q", got)
	}
}
