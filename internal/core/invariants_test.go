package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"periodica/internal/alphabet"
	"periodica/internal/series"
)

// TestThresholdNestingProperty: everything reported at a higher threshold
// must be reported at any lower threshold (Table 1's nesting).
func TestThresholdNestingProperty(t *testing.T) {
	f := func(seed int64, loRaw, hiRaw uint8) bool {
		lo := float64(loRaw%50+10) / 100
		hi := lo + float64(hiRaw%40+5)/100
		if hi > 1 {
			hi = 1
		}
		rng := rand.New(rand.NewSource(seed))
		idx := make([]uint16, 150)
		for i := range idx {
			idx[i] = uint16(rng.Intn(3))
		}
		s := series.FromIndices(alphabet.Letters(3), idx)
		resHi, err := mine(s, Options{Threshold: hi, MaxPatternPeriod: -1})
		if err != nil {
			return false
		}
		resLo, err := mine(s, Options{Threshold: lo, MaxPatternPeriod: -1})
		if err != nil {
			return false
		}
		inLo := map[SymbolPeriodicity]bool{}
		for _, sp := range resLo.Periodicities {
			inLo[sp] = true
		}
		for _, sp := range resHi.Periodicities {
			if !inLo[sp] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPeriodRangeRestrictionProperty: restricting [MinPeriod, MaxPeriod]
// yields exactly the full result filtered to that range.
func TestPeriodRangeRestrictionProperty(t *testing.T) {
	f := func(seed int64, loRaw, spanRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 120
		idx := make([]uint16, n)
		for i := range idx {
			idx[i] = uint16(rng.Intn(3))
		}
		s := series.FromIndices(alphabet.Letters(3), idx)
		lo := int(loRaw)%20 + 1
		hi := lo + int(spanRaw)%20
		if hi > n/2 {
			hi = n / 2
		}
		if lo > hi {
			lo = hi
		}
		full, err := mine(s, Options{Threshold: 0.4, MaxPatternPeriod: -1})
		if err != nil {
			return false
		}
		restricted, err := mine(s, Options{Threshold: 0.4, MinPeriod: lo, MaxPeriod: hi, MaxPatternPeriod: -1})
		if err != nil {
			return false
		}
		var want []SymbolPeriodicity
		for _, sp := range full.Periodicities {
			if sp.Period >= lo && sp.Period <= hi {
				want = append(want, sp)
			}
		}
		return reflect.DeepEqual(want, restricted.Periodicities) ||
			(len(want) == 0 && len(restricted.Periodicities) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestConfidenceEqualsRatioProperty: every reported confidence must equal
// F2/Pairs with the definitional values.
func TestConfidenceEqualsRatioProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		idx := make([]uint16, 100)
		for i := range idx {
			idx[i] = uint16(rng.Intn(4))
		}
		s := series.FromIndices(alphabet.Letters(4), idx)
		res, err := mine(s, Options{Threshold: 0.3, MaxPatternPeriod: -1})
		if err != nil {
			return false
		}
		for _, sp := range res.Periodicities {
			if sp.Pairs != pairsAt(s.Len(), sp.Period, sp.Position) {
				return false
			}
			if sp.F2 != s.F2(sp.Symbol, sp.Period, sp.Position) {
				return false
			}
			if sp.Confidence != float64(sp.F2)/float64(sp.Pairs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendInvarianceProperty: appending symbols never removes a match —
// F2 counts via the online count table are monotone in the stream.
func TestAppendInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, err := NewCounts(3, 8)
		if err != nil {
			return false
		}
		prev := make(map[[3]int]int)
		for i := 0; i < 120; i++ {
			if err := m.Append(rng.Intn(3)); err != nil {
				return false
			}
			for k := 0; k < 3; k++ {
				for p := 1; p <= 8; p++ {
					for l := 0; l < p; l++ {
						cur := m.F2(k, p, l)
						key := [3]int{k, p, l}
						if cur < prev[key] {
							return false
						}
						prev[key] = cur
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

// TestMaximalFilterSoundProperty: FilterMaximal never keeps a pattern that
// is subsumed by another kept pattern, and never drops one that is not
// subsumed by any input pattern.
func TestMaximalFilterSoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		idx := make([]uint16, 90)
		for i := range idx {
			idx[i] = uint16(rng.Intn(2))
		}
		s := series.FromIndices(alphabet.Letters(2), idx)
		res, err := mine(s, Options{Threshold: 0.3})
		if err != nil {
			return false
		}
		kept := FilterMaximal(res.Patterns)
		keptSet := map[string]bool{}
		for _, pt := range kept {
			keptSet[patternKey(pt)] = true
		}
		for _, a := range kept {
			for _, b := range kept {
				if a.Period == b.Period && len(b.Fixed) > len(a.Fixed) && subsumes(b, a) {
					return false // kept a subsumed pattern
				}
			}
		}
		for _, a := range res.Patterns {
			if keptSet[patternKey(a)] {
				continue
			}
			subsumed := false
			for _, b := range res.Patterns {
				if a.Period == b.Period && len(b.Fixed) > len(a.Fixed) && subsumes(b, a) {
					subsumed = true
					break
				}
			}
			if !subsumed {
				return false // dropped a non-subsumed pattern
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
