// Package sketch provides the randomized projections used by the periodic
// trends baseline: symbols are hashed to ±1 signs so that the squared
// distance between a projected series and its shift is, in expectation,
// proportional to the Hamming distance the trends algorithm ranks periods by.
package sketch

import (
	"fmt"
	"math/rand"

	"periodica/internal/series"
)

// Sign is a random ±1 hash over symbol indices.
type Sign struct {
	vals []float64
}

// NewSign draws a ±1 value per symbol of a σ-symbol alphabet.
func NewSign(sigma int, seed int64) *Sign {
	if sigma < 1 {
		panic(fmt.Sprintf("sketch: sigma %d < 1", sigma))
	}
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, sigma)
	for i := range vals {
		if rng.Intn(2) == 0 {
			vals[i] = 1
		} else {
			vals[i] = -1
		}
	}
	return &Sign{vals: vals}
}

// Project maps the series to its ±1 projection h(t_0), …, h(t_{n−1}).
func (h *Sign) Project(s *series.Series) []float64 {
	out := make([]float64, s.Len())
	for i := range out {
		out[i] = h.vals[s.At(i)]
	}
	return out
}
