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
	for _, c := range cands[0] {
		if c.Period == 5 {
			t.Fatal("Ma-Hellerstein proposed period 5, which adjacent inter-arrivals cannot contain")
		}
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

func TestPeriodScoreString(t *testing.T) {
	got := PeriodScore{Period: 7, Count: 3, Score: 1.5}.String()
	if got != "p=7 count=3 score=1.50" {
		t.Fatalf("String = %q", got)
	}
}
