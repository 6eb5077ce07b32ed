package core

import (
	"context"
	"fmt"
	"sort"

	"periodica/internal/series"
)

// DatabasePattern is a periodic pattern aggregated over a collection of
// series: it reached the per-series threshold in Sequences of the mined
// series, with MeanSupport averaged over those.
type DatabasePattern struct {
	Pattern     Pattern
	Sequences   int
	MeanSupport float64
}

// DatabaseResult is the output of MineDatabase.
type DatabaseResult struct {
	Total    int // series mined
	Patterns []DatabasePattern
}

// MineDatabase mines every series of a time-series database (all over the
// same alphabet — e.g. one power-consumption series per customer) and
// aggregates the multi-symbol patterns across series: a pattern is reported
// when it reaches the per-series threshold in at least minFraction of the
// series. This lifts the paper's single-sequence miner to the
// database-of-sequences setting its introduction motivates.
func MineDatabase(db []*series.Series, opt Options, minFraction float64) (*DatabaseResult, error) {
	if len(db) == 0 {
		return nil, fmt.Errorf("core: empty database")
	}
	if minFraction <= 0 || minFraction > 1 {
		return nil, fmt.Errorf("core: minFraction %v outside (0,1]", minFraction)
	}
	alpha := db[0].Alphabet()
	for i, s := range db {
		if s.Alphabet() != alpha {
			return nil, fmt.Errorf("core: series %d has a different alphabet", i)
		}
	}
	type agg struct {
		pattern    Pattern
		sequences  int
		supportSum float64
	}
	byKey := map[string]*agg{}
	for _, s := range db {
		res, err := MineContext(context.Background(), s, opt)
		if err != nil {
			return nil, err
		}
		for _, pt := range res.Patterns {
			key := patternKey(pt)
			a := byKey[key]
			if a == nil {
				a = &agg{pattern: Pattern{Period: pt.Period, Fixed: pt.Fixed}}
				byKey[key] = a
			}
			a.sequences++
			a.supportSum += pt.Support
		}
	}
	need := int(minFraction * float64(len(db)))
	if float64(need) < minFraction*float64(len(db)) {
		need++
	}
	if need < 1 {
		need = 1
	}
	out := &DatabaseResult{Total: len(db)}
	for _, a := range byKey {
		if a.sequences >= need {
			out.Patterns = append(out.Patterns, DatabasePattern{
				Pattern:     a.pattern,
				Sequences:   a.sequences,
				MeanSupport: a.supportSum / float64(a.sequences),
			})
		}
	}
	sort.Slice(out.Patterns, func(i, j int) bool {
		a, b := out.Patterns[i], out.Patterns[j]
		if a.Sequences != b.Sequences {
			return a.Sequences > b.Sequences
		}
		if a.MeanSupport != b.MeanSupport { //opvet:ignore floatcmp exact tie-break in sort comparator
			return a.MeanSupport > b.MeanSupport
		}
		if a.Pattern.Period != b.Pattern.Period {
			return a.Pattern.Period < b.Pattern.Period
		}
		return compareFixed(a.Pattern.Fixed, b.Pattern.Fixed) < 0
	})
	return out, nil
}

func patternKey(pt Pattern) string {
	key := make([]byte, 0, 4+len(pt.Fixed)*8)
	key = appendInt(key, pt.Period)
	for _, f := range pt.Fixed {
		key = appendInt(key, f.Position)
		key = appendInt(key, f.Symbol)
	}
	return string(key)
}

func appendInt(b []byte, v int) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
