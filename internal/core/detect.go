package core

import (
	"context"

	"periodica/internal/series"
)

// CandidatePeriod is a period that survived the one-pass aggregate stage: at
// least one symbol's total lag-p match count could reach the threshold at
// some position.
type CandidatePeriod struct {
	Period     int
	BestSymbol int   // symbol with the largest lag-p match count
	MatchCount int64 // that symbol's lag-p match count
}

// DetectCandidatesContext runs only the periodicity-detection phase of the
// algorithm over the periods 1..maxPeriod (maxPeriod 0 means n/2); it is
// DetectCandidatesRange with the default period floor.
func DetectCandidatesContext(ctx context.Context, s *series.Series, psi float64, maxPeriod int) ([]CandidatePeriod, error) {
	return DetectCandidatesRange(ctx, s, psi, 0, maxPeriod)
}

// DetectCandidatesRange runs only the periodicity-detection phase of the
// algorithm over the periods [minPeriod, maxPeriod], validated against n as
// a mine validates them (0 means the defaults 1 and n/2): one pass over the
// series builds the per-symbol indicators, one FFT block autocorrelation per
// symbol yields the match counts of every lag up to maxPeriod, and each
// period of the range is kept iff some symbol passes the sound aggregate
// test r_k(p)/minPairs(p) ≥ ψ (a necessary condition for Definition 1, since
// F2(s_k, π_{p,l}) ≤ r_k(p) for every position l). Total cost
// O(σ n log maxPeriod) — the phase the paper's Fig. 5 times against the
// periodic-trends baseline, whose output is likewise a set of candidate
// periods. The FFT stage runs through the planned engine on all cores.
// Exact positions and confidences for a candidate are resolved on demand
// with MineWorkers over a restricted period range, or Confidencer.
//
// The scheduler polls ctx before the FFT pass, between its per-symbol
// transforms, and throughout the aggregate sweep, so a cancelled or
// timed-out detection returns promptly with the context's error.
func DetectCandidatesRange(ctx context.Context, s *series.Series, psi float64, minPeriod, maxPeriod int) ([]CandidatePeriod, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ses, err := newCandidateSession(s, psi, minPeriod, maxPeriod, sessionConfig{workers: 1, cancel: ctx.Err})
	if err != nil {
		return nil, err
	}
	return ses.candidates(memoryDetect{lagOnly: true})
}

// BestConfidences returns, for every period p in [1, maxPeriod], the maximum
// Definition-1 confidence over all symbols and positions (index 0 unused;
// maxPeriod 0 means n/2). Unlike MineWorkers it materializes nothing per
// periodicity, so it is the right tool for threshold sweeps like the paper's
// Table 1, where loose thresholds admit millions of individual
// periodicities.
func BestConfidences(s *series.Series, maxPeriod int) ([]float64, error) {
	n := s.Len()
	if maxPeriod == 0 {
		maxPeriod = n / 2
	}
	if maxPeriod < 1 || maxPeriod >= n {
		return nil, invalidf("core: maxPeriod %d outside [1,%d)", maxPeriod, n)
	}
	det := newDetector(s)
	out := make([]float64, maxPeriod+1)
	for p := 1; p <= maxPeriod; p++ {
		best := 0.0
		det.detect(p, 1e-9, func(sp SymbolPeriodicity) {
			if sp.Confidence > best {
				best = sp.Confidence
			}
		})
		if best > 1 {
			best = 1
		}
		out[p] = best
	}
	return out, nil
}
