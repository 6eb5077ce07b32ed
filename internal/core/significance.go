package core

import (
	"fmt"
	"math"

	"periodica/internal/series"
)

// Significance scores symbol periodicities against the null model of
// independently drawn symbols: under the null, a consecutive projection pair
// matches symbol k with probability ρ_k², where ρ_k is the symbol's overall
// frequency, so the match count F2 is Binomial(pairs, ρ_k²). The p-value is
// that binomial's upper tail at the observed count. Definition 1 alone
// admits confident-looking flukes at large periods (few pairs); significance
// testing separates them from structure.
type Significance struct {
	rates []float64 // per-symbol pair-match probability ρ_k²
}

// NewSignificance derives the null model from the symbol frequencies of s.
func NewSignificance(s *series.Series) *Significance {
	counts := s.Counts()
	n := float64(s.Len())
	rates := make([]float64, len(counts))
	for k, c := range counts {
		rho := float64(c) / n
		rates[k] = rho * rho
	}
	return &Significance{rates: rates}
}

// PValue returns P[Binomial(sp.Pairs, ρ²) ≥ sp.F2] — the chance of the
// observed (or stronger) periodicity arising from independent symbols.
func (sig *Significance) PValue(sp SymbolPeriodicity) float64 {
	if sp.Symbol < 0 || sp.Symbol >= len(sig.rates) {
		return 1
	}
	return binomialUpperTail(sp.Pairs, sp.F2, sig.rates[sp.Symbol])
}

// TestsForRange returns the number of (symbol, period, position) hypotheses
// examined when mining σ symbols over periods [minPeriod, maxPeriod]:
// σ · Σ p.
func TestsForRange(sigma, minPeriod, maxPeriod int) int {
	total := 0
	for p := minPeriod; p <= maxPeriod; p++ {
		total += p
	}
	return sigma * total
}

// PeriodPValues returns, for every period p in [1, maxPeriod], the minimum
// p-value over that period's symbol periodicities (1 when none exists;
// index 0 unused; maxPeriod 0 means n/2). Sorting periods by this value
// ranks them by the strength of evidence, immune to the
// confident-looking-fluke problem of raw Definition-1 confidence at large
// periods.
func PeriodPValues(s *series.Series, maxPeriod int) ([]float64, error) {
	n := s.Len()
	if maxPeriod == 0 {
		maxPeriod = n / 2
	}
	if maxPeriod < 1 || maxPeriod >= n {
		return nil, fmt.Errorf("core: maxPeriod %d outside [1,%d)", maxPeriod, n)
	}
	sig := NewSignificance(s)
	det := newDetector(s)
	out := make([]float64, maxPeriod+1)
	for p := range out {
		out[p] = 1
	}
	for p := 1; p <= maxPeriod; p++ {
		det.detect(p, 1e-9, func(sp SymbolPeriodicity) {
			if pv := sig.PValue(sp); pv < out[p] {
				out[p] = pv
			}
		})
	}
	return out, nil
}

// binomialUpperTail returns P[X ≥ hits] for X ~ Binomial(trials, rate),
// summing the exact terms in log space from the observed count upward. The
// sum starts at or past the distribution mode for any count worth testing,
// so terms decay geometrically and the loop exits early.
func binomialUpperTail(trials, hits int, rate float64) float64 {
	if hits <= 0 {
		return 1
	}
	if trials <= 0 || hits > trials {
		return 1
	}
	if rate <= 0 {
		return 0 // any hit is impossible under the null
	}
	if rate >= 1 {
		return 1
	}
	logRate, logComp := math.Log(rate), math.Log1p(-rate)
	logTerm := func(j int) float64 {
		lchoose, _ := math.Lgamma(float64(trials + 1))
		lj, _ := math.Lgamma(float64(j + 1))
		lnj, _ := math.Lgamma(float64(trials - j + 1))
		return lchoose - lj - lnj + float64(j)*logRate + float64(trials-j)*logComp
	}
	sum := 0.0
	for j := hits; j <= trials; j++ {
		term := math.Exp(logTerm(j))
		sum += term
		if term < sum*1e-15 && float64(j) > rate*float64(trials+1) {
			break
		}
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}
