// Package discretize turns numeric feature values into the nominal symbol
// levels the miner operates on (§2.1 of the paper; both real-data experiments
// use five levels from "very low" to "very high"). Schemes: explicit
// breakpoints (how the paper's domain experts set levels) and equal-width
// bins.
package discretize

import (
	"fmt"

	"periodica/internal/alphabet"
	"periodica/internal/series"
)

// Scheme maps a numeric value to a level index in [0, Levels).
// A value v maps to the smallest i with v < Breakpoints[i], or to the last
// level if v is ≥ every breakpoint.
type Scheme struct {
	breakpoints []float64
}

// NewBreakpoints builds a scheme with the given ascending breakpoints,
// yielding len(breaks)+1 levels.
func NewBreakpoints(breaks []float64) (Scheme, error) {
	if len(breaks) == 0 {
		return Scheme{}, fmt.Errorf("discretize: no breakpoints")
	}
	for i := 1; i < len(breaks); i++ {
		if breaks[i] <= breaks[i-1] {
			return Scheme{}, fmt.Errorf("discretize: breakpoints not strictly ascending at %d", i)
		}
	}
	out := make([]float64, len(breaks))
	copy(out, breaks)
	return Scheme{breakpoints: out}, nil
}

// NewEqualWidth splits [min, max] into the given number of equal-width
// levels.
func NewEqualWidth(min, max float64, levels int) (Scheme, error) {
	if levels < 2 {
		return Scheme{}, fmt.Errorf("discretize: levels %d < 2", levels)
	}
	if max <= min {
		return Scheme{}, fmt.Errorf("discretize: max %v ≤ min %v", max, min)
	}
	breaks := make([]float64, levels-1)
	width := (max - min) / float64(levels)
	for i := range breaks {
		breaks[i] = min + width*float64(i+1)
	}
	return Scheme{breakpoints: breaks}, nil
}

// Levels returns the number of levels.
func (s Scheme) Levels() int { return len(s.breakpoints) + 1 }

// Level returns the level index of v.
func (s Scheme) Level(v float64) int {
	// Binary search: first breakpoint strictly greater than v.
	lo, hi := 0, len(s.breakpoints)
	for lo < hi {
		mid := (lo + hi) / 2
		if v < s.breakpoints[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Apply discretizes values into a series over alpha, which must have exactly
// Levels() symbols.
func (s Scheme) Apply(values []float64, alpha *alphabet.Alphabet) (*series.Series, error) {
	if alpha.Size() != s.Levels() {
		return nil, fmt.Errorf("discretize: alphabet size %d, scheme has %d levels", alpha.Size(), s.Levels())
	}
	idx := make([]uint16, len(values))
	for i, v := range values {
		idx[i] = uint16(s.Level(v))
	}
	return series.FromIndices(alpha, idx), nil
}

// FiveLevelNames are the level names both real-data experiments use, in
// symbol order a..e.
var FiveLevelNames = []string{"very low", "low", "medium", "high", "very high"}
