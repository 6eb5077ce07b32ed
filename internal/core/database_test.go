package core

import (
	"math/rand"
	"slices"
	"testing"

	"periodica/internal/alphabet"
	"periodica/internal/series"
)

func noisyPeriodic(rng *rand.Rand, alpha *alphabet.Alphabet, pattern []uint16, n int, noise float64) *series.Series {
	idx := make([]uint16, n)
	for i := range idx {
		idx[i] = pattern[i%len(pattern)]
		if rng.Float64() < noise {
			idx[i] = uint16(rng.Intn(alpha.Size()))
		}
	}
	return series.FromIndices(alpha, idx)
}

func TestMineDatabaseFindsSharedPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	alpha := alphabet.Letters(4)
	shared := []uint16{0, 1, 2, 3}
	var db []*series.Series
	// Eight customers share the period-4 pattern; two are pure noise.
	for i := 0; i < 8; i++ {
		db = append(db, noisyPeriodic(rng, alpha, shared, 400, 0.03))
	}
	for i := 0; i < 2; i++ {
		idx := make([]uint16, 400)
		for j := range idx {
			idx[j] = uint16(rng.Intn(4))
		}
		db = append(db, series.FromIndices(alpha, idx))
	}
	res, err := MineDatabase(db, Options{Threshold: 0.6, MaxPeriod: 20, MaxPatternPeriod: 20}, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 10 {
		t.Fatalf("Total = %d", res.Total)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("no shared patterns found")
	}
	// The full abcd pattern (period 4, all positions fixed) must be among
	// the aggregated patterns, in ≥ 7 of the 10 sequences.
	alphaFull := false
	for _, dp := range res.Patterns {
		if dp.Pattern.Period == 4 && len(dp.Pattern.Fixed) == 4 {
			alphaFull = true
			if dp.Sequences < 7 {
				t.Fatalf("full pattern in only %d sequences", dp.Sequences)
			}
			if dp.MeanSupport < 0.6 {
				t.Fatalf("mean support %v below per-series threshold", dp.MeanSupport)
			}
		}
	}
	if !alphaFull {
		t.Fatal("full period-4 pattern not aggregated")
	}
}

func TestMineDatabaseOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	alpha := alphabet.Letters(3)
	var db []*series.Series
	for i := 0; i < 4; i++ {
		db = append(db, noisyPeriodic(rng, alpha, []uint16{0, 1, 2}, 120, 0.1))
	}
	res, err := MineDatabase(db, Options{Threshold: 0.5, MaxPeriod: 10, MaxPatternPeriod: 10}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Patterns); i++ {
		if res.Patterns[i].Sequences > res.Patterns[i-1].Sequences {
			t.Fatal("patterns not sorted by sequence count")
		}
	}
}

func TestMineDatabaseValidates(t *testing.T) {
	if _, err := MineDatabase(nil, Options{Threshold: 0.5}, 0.5); err == nil {
		t.Fatal("empty database: want error")
	}
	a := series.FromString("ababab")
	b := series.FromString("xyxyxy")
	if _, err := MineDatabase([]*series.Series{a, b}, Options{Threshold: 0.5}, 0.5); err == nil {
		t.Fatal("mixed alphabets: want error")
	}
	if _, err := MineDatabase([]*series.Series{a}, Options{Threshold: 0.5}, 0); err == nil {
		t.Fatal("minFraction 0: want error")
	}
	if _, err := MineDatabase([]*series.Series{a}, Options{Threshold: 0}, 0.5); err == nil {
		t.Fatal("bad mine options: want error")
	}
}

func TestPatternKeyDistinguishes(t *testing.T) {
	a := Pattern{Period: 4, Fixed: fixed(0, 1)}
	b := Pattern{Period: 4, Fixed: fixed(1, 0)}
	c := Pattern{Period: 5, Fixed: fixed(0, 1)}
	if patternKey(a) == patternKey(b) || patternKey(a) == patternKey(c) {
		t.Fatal("pattern keys collide")
	}
	if patternKey(a) != patternKey(Pattern{Period: 4, Fixed: fixed(0, 1)}) {
		t.Fatal("equal patterns have different keys")
	}
}

// TestTalliedPatternsDoNotPinArena checks that the database tally copies
// each pattern's pins: a mine cuts its Fixed lists from shared arena blocks,
// and an aggregate that kept one would hold the mine's whole block alive.
func TestTalliedPatternsDoNotPinArena(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	s := noisyPeriodic(rng, alphabet.Letters(4), []uint16{0, 1, 2, 3}, 400, 0.03)
	res, err := mine(s, Options{Threshold: 0.6, MaxPeriod: 20, MaxPatternPeriod: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) < 2 {
		t.Fatal("fixture mined too few patterns; the test is vacuous")
	}
	tally := patternTally{}
	tally.add(res.Patterns)
	for _, pt := range res.Patterns {
		got := tally[patternKey(pt)].pattern.Fixed
		if !slices.Equal(got, pt.Fixed) {
			t.Fatalf("tallied pins %v, mined %v", got, pt.Fixed)
		}
		if &got[0] == &pt.Fixed[0] {
			t.Fatalf("tallied pattern %v shares the mined pattern's pins", pt.Fixed)
		}
	}
}
