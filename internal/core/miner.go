// Package core implements the paper's obscure-periodic-pattern mining
// algorithm: symbol-periodicity detection for every candidate period in one
// pass (Definition 1), periodic single-symbol patterns (Definition 2), and
// multi-symbol candidate patterns with estimated support (Definition 3),
// driven by the modified convolution of package conv.
package core

import (
	"context"
	"fmt"

	"periodica/internal/series"
)

// Engine selects how the convolution components are evaluated.
type Engine int

const (
	// EngineAuto picks EngineFFT for long series and EngineNaive for short
	// ones.
	EngineAuto Engine = iota
	// EngineNaive scans the series once per candidate period. O(n²) overall;
	// the ground-truth reference.
	EngineNaive
	// EngineBitset evaluates c′_p with word-parallel AND/shift over the
	// mapped binary vector and prunes periods by match popcount.
	EngineBitset
	// EngineFFT computes all lag-match counts with one FFT autocorrelation
	// per symbol (O(σ n log n)), prunes, and resolves phases only for
	// surviving (period, symbol) pairs. This is the paper's algorithm.
	EngineFFT
)

func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineNaive:
		return "naive"
	case EngineBitset:
		return "bitset"
	case EngineFFT:
		return "fft"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// Options configure MineWorkers.
type Options struct {
	// Threshold is the periodicity threshold ψ ∈ (0,1] of Definition 1.
	Threshold float64
	// MinPeriod and MaxPeriod bound the candidate periods (inclusive).
	// Defaults: 1 and n/2, the paper's loop bounds.
	MinPeriod int
	MaxPeriod int
	// Engine selects the evaluation strategy; default EngineAuto.
	Engine Engine
	// MaxPatternPeriod caps the periods for which multi-symbol candidate
	// patterns (Definition 3) are enumerated; single-symbol patterns are
	// always produced. Default 128. Set negative to disable multi-symbol
	// mining entirely.
	MaxPatternPeriod int
	// MaxPatterns caps the number of emitted multi-symbol patterns
	// (enumeration stops once reached). Default 10000.
	MaxPatterns int
	// MinPairs requires a symbol periodicity's projection to contain at
	// least this many consecutive slot pairs (the Definition-1
	// denominator). The paper's semantics is 1, the default — but then a
	// single match at a two-slot projection yields confidence 1, so large
	// periods are never prunable; raising MinPairs demands statistical
	// mass and lets the aggregate prune discard most (period, symbol)
	// pairs.
	MinPairs int
}

// withDefaults delegates validation and defaulting to the pattern-query
// Spec — the single validator every layer shares — by round-tripping
// through query.Spec.Normalize. Errors come back with the query package's
// wording, prefixed here, so a bad threshold reads identically whether it
// arrived as a struct field or a query clause.
func (o Options) withDefaults(n int) (Options, error) {
	sp, err := SpecFromOptions(o).Normalize(n)
	if err != nil {
		return o, invalidf("core: %v", err)
	}
	out, err := OptionsFromSpec(sp)
	if err != nil {
		return o, err
	}
	return out, nil
}

// SymbolPeriodicity records that symbol Symbol is periodic with period Period
// at position Position (Definition 1): F2 of Pairs consecutive projection
// slots matched, for a confidence F2/Pairs ≥ ψ.
type SymbolPeriodicity struct {
	Symbol     int
	Period     int
	Position   int
	F2         int
	Pairs      int
	Confidence float64
}

// Result is the output of MineWorkers.
type Result struct {
	N             int
	Sigma         int
	Threshold     float64
	Periodicities []SymbolPeriodicity
	// Periods lists the distinct candidate period values, ascending
	// (Table 1's "period values").
	Periods []int
	// Patterns holds multi-symbol candidate patterns (≥ 2 fixed symbols)
	// whose estimated support reaches the threshold.
	Patterns []Pattern
	// PatternsTruncated reports that MaxPatterns stopped the enumeration.
	PatternsTruncated bool
}

// pairsAt returns the Definition-1 denominator ⌈(n−l)/p⌉ − 1: the number of
// consecutive slot pairs in π_{p,l}(T).
func pairsAt(n, p, l int) int {
	return (n-l+p-1)/p - 1
}

// qualifies is the Definition-1 test F2/pairs ≥ ψ: every emitted symbol
// periodicity, whatever the engine or source, is accepted here. The pattern
// enumeration applies it to occurrence counts over ⌊n/p⌋, for both its
// prune and its emit.
func qualifies(f2, pairs int, psi float64) bool {
	return float64(f2)/float64(pairs) >= psi
}

// Survives is the sound aggregate prune r/minPairs ≥ ψ: F2(s_k, π_{p,l}) ≤ r
// for every phase l, and minPairs is at most every phase's denominator, so a
// symbol with aggregate lag-p match count r that fails it has no periodicity
// at p. It divides exactly as qualifies does, and IEEE division rounds
// monotonically, so every pair qualifies accepts survives; the product form
// r ≥ ψ·minPairs can round above r and drop one.
func Survives(r int64, minPairs int, psi float64) bool {
	return float64(r)/float64(minPairs) >= psi
}

// periodicity builds the record of a qualifying count.
func periodicity(k, p, l, f2, pairs int) SymbolPeriodicity {
	return SymbolPeriodicity{Symbol: k, Period: p, Position: l,
		F2: f2, Pairs: pairs, Confidence: float64(f2) / float64(pairs)}
}

// MineWorkers runs the full algorithm of Fig. 2 over s: a session drives
// the shared detect → sweep → resolve → enumerate pipeline. workers ≤ 1 runs
// the serial scheduler (the FFT precompute still batches across all
// cores); a larger count spreads the per-period stage work and the FFT
// precompute over that many workers, capped at GOMAXPROCS, and substitutes
// the bitset engine for the naive one, which shares its semantics and
// shards cleanly. The result is identical at every worker count.
//
// The session's scheduler polls ctx between the FFT precompute's pair
// transforms, at every candidate period of the sweep and resolve stages,
// between occurrence-set builds, and every few thousand pattern-enumeration
// steps, so a cancelled or timed-out mine returns promptly with the
// context's error and no partial result. The one uninterruptible stretch is
// a single in-flight pair FFT, O(n log n).
func MineWorkers(ctx context.Context, s *series.Series, opt Options, workers int) (*Result, error) {
	cfg := sessionConfig{workers: 1, cancel: ctx.Err}
	if workers > 1 {
		cfg.workers, cfg.fftWorkers, cfg.parallel = workers, workers, true
	}
	ses, err := newSession(s, opt, cfg)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return ses.mine()
}

// MineContext is MineWorkers with the serial scheduler.
func MineContext(ctx context.Context, s *series.Series, opt Options) (*Result, error) {
	return MineWorkers(ctx, s, opt, 1)
}

// finishResult derives the period list from the periodicities, which are
// in canonical order (period, position, symbol). The Definition-2
// single-symbol patterns are not stored: each is a function of its
// periodicity (symbol at offset Position of a length-Period pattern, support
// its confidence), which result.FromCore renders.
func finishResult(res *Result) {
	for i, sp := range res.Periodicities {
		if i == 0 || sp.Period != res.Periodicities[i-1].Period {
			res.Periods = append(res.Periods, sp.Period)
		}
	}
}

// PeriodConfidence returns the minimum threshold ψ at which period p would be
// detected: the maximum Definition-1 confidence over all symbols and
// positions at period p. This is the "confidence" plotted in Figs. 3 and 6.
func PeriodConfidence(s *series.Series, p int) float64 {
	return NewConfidencer(s).At(p)
}

// Confidencer answers repeated period-confidence queries over one series,
// reusing the mapped indicators across queries.
type Confidencer struct {
	det *detector
}

// NewConfidencer builds a Confidencer for s.
func NewConfidencer(s *series.Series) *Confidencer {
	return &Confidencer{det: newDetector(s)}
}

// At returns the maximum Definition-1 confidence at period p.
func (c *Confidencer) At(p int) float64 {
	best := 0.0
	c.det.detect(p, 1e-9, func(sp SymbolPeriodicity) {
		if sp.Confidence > best {
			best = sp.Confidence
		}
	})
	if best > 1 {
		best = 1
	}
	return best
}
