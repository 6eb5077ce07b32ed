// Package baseline implements the Ma–Hellerstein linear distance-based
// period finder, the related-work algorithm the paper compares against in
// §1.1 and the quality experiment ranks beside the miner.
package baseline

import (
	"fmt"
	"sort"

	"periodica/internal/series"
)

// PeriodScore is a candidate period for one symbol with its test score.
type PeriodScore struct {
	Period int
	Count  int
	Score  float64
}

// MHConfig configures the Ma–Hellerstein finder.
type MHConfig struct {
	// Chi is the chi-square significance threshold; a distance qualifies if
	// its score (C−E)²/E with C>E exceeds Chi. Default 3.84 (95%).
	Chi float64
	// MinCount discards distances observed fewer times. Default 2.
	MinCount int
}

func (c MHConfig) withDefaults() MHConfig {
	if c.Chi == 0 { //opvet:ignore floatcmp zero means unset
		c.Chi = 3.84
	}
	if c.MinCount == 0 {
		c.MinCount = 2
	}
	return c
}

// MaHellerstein finds candidate periods per symbol from the distances between
// *adjacent* occurrences, scored by a chi-square test against the geometric
// inter-arrival distribution of a random placement. One linear pass per
// symbol; by construction it only ever proposes adjacent inter-arrival
// values, so it misses periods realized by non-adjacent occurrences — the
// deficiency §1.1 of the paper illustrates with occurrences at
// 0, 4, 5, 7, 10 whose underlying period 5 never appears as an adjacent
// distance.
func MaHellerstein(s *series.Series, cfg MHConfig) map[int][]PeriodScore {
	cfg = cfg.withDefaults()
	n := s.Len()
	out := make(map[int][]PeriodScore)
	for k := 0; k < s.Alphabet().Size(); k++ {
		positions := occurrences(s, k)
		if len(positions) < 2 {
			continue
		}
		hist := map[int]int{}
		for i := 1; i < len(positions); i++ {
			hist[positions[i]-positions[i-1]]++
		}
		rho := float64(len(positions)) / float64(n)
		trials := float64(len(positions) - 1)
		var cands []PeriodScore
		for d, c := range hist {
			if c < cfg.MinCount {
				continue
			}
			expected := trials * geomProb(rho, d)
			if expected <= 0 {
				expected = 1e-9
			}
			if float64(c) <= expected {
				continue
			}
			score := (float64(c) - expected) * (float64(c) - expected) / expected
			if score >= cfg.Chi {
				cands = append(cands, PeriodScore{Period: d, Count: c, Score: score})
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].Score != cands[j].Score { //opvet:ignore floatcmp exact tie-break in sort comparator
				return cands[i].Score > cands[j].Score
			}
			return cands[i].Period < cands[j].Period
		})
		if len(cands) > 0 {
			out[k] = cands
		}
	}
	return out
}

// geomProb is the probability that a random placement with density rho has an
// adjacent inter-arrival of exactly d.
func geomProb(rho float64, d int) float64 {
	p := rho
	for i := 1; i < d; i++ {
		p *= 1 - rho
	}
	return p
}

func occurrences(s *series.Series, k int) []int {
	var out []int
	for i := 0; i < s.Len(); i++ {
		if s.At(i) == k {
			out = append(out, i)
		}
	}
	return out
}

// String renders a PeriodScore.
func (ps PeriodScore) String() string {
	return fmt.Sprintf("p=%d count=%d score=%.2f", ps.Period, ps.Count, ps.Score)
}
