// Package periodica mines obscure periodic patterns in symbol time series:
// periodic patterns whose period is unknown a priori, discovered as part of
// the mining process itself. It implements the convolution-based one-pass
// algorithm of Elfeky, Aref and Elmagarmid ("Using Convolution to Mine
// Obscure Periodic Patterns in One Pass", EDBT 2004): the series is mapped
// to a binary vector under a power-of-two symbol encoding, a modified
// convolution — evaluated with FFTs in O(n log n) — compares the series
// against every shift of itself at once, and the matches it encodes yield,
// for every candidate period, the periodic symbols, their positions, and
// candidate multi-symbol patterns with estimated support.
//
// Every mine runs from a compiled Query, built from a query string or
// lifted from Options with QueryFromOptions:
//
//	s, err := periodica.NewSeriesFromString("abcabbabcb")
//	q, err := periodica.CompileQuery("conf >= 0.6")
//	res, err := periodica.MineQueryContext(ctx, s, q)
//	for _, pt := range res.Patterns {
//		fmt.Println(pt.Text, pt.Support)
//	}
//
// There is one mining entry point per input source, and each takes a
// context for cancellation and deadlines:
//
//   - MineQueryContext mines an in-memory Series; a stream ingested in one
//     pass is a slice of symbols handed to NewSeries when it ends;
//   - MineDatabase mines a database of series and aggregates the patterns
//     they share;
//   - CandidatePeriodsQueryContext runs only the O(σ n log n) detection
//     phase;
//   - CandidatePeriodsFile runs detection over an on-disk series in one
//     streaming pass through the block kernel, with O(σ·B) state and no
//     scratch files.
//
// A query's "workers N" clause spreads a mine over N cores; the result is
// identical. Numeric series are discretized first (DiscretizeEqualWidth,
// DiscretizeBreakpoints, DiscretizeSAX, Query.DiscretizeValues) and
// irregular timestamped events are binned with GridEvents. Monitor and
// Counter track periodicities online, over a sliding window and over an
// unbounded stream; they answer Periodicities(q) from their count tables
// with what a mine under the same query reports, and Counters over adjacent
// stretches merge. Significant separates genuine structure from the
// confident-looking flukes the paper's Definition 1 admits at large
// periods.
package periodica

import (
	"fmt"

	"periodica/internal/alphabet"
	"periodica/internal/core"
	"periodica/internal/discretize"
	"periodica/internal/result"
	"periodica/internal/series"
)

// Series is a discretized symbol time series.
type Series struct {
	inner *series.Series
}

// NewSeries builds a series from a slice of symbols; the alphabet is the set
// of distinct symbols in order of first appearance.
func NewSeries(symbols []string) (*Series, error) {
	if len(symbols) == 0 {
		return nil, fmt.Errorf("periodica: empty series")
	}
	var distinct []string
	seen := map[string]bool{}
	for _, s := range symbols {
		if !seen[s] {
			seen[s] = true
			distinct = append(distinct, s)
		}
	}
	alpha, err := alphabet.New(distinct...)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(symbols))
	for i, s := range symbols {
		idx[i], _ = alpha.Index(s)
	}
	inner, err := series.New(alpha, idx)
	if err != nil {
		return nil, err
	}
	return &Series{inner: inner}, nil
}

// NewSeriesFromString builds a series of single-rune symbols; the alphabet is
// the set of distinct runes in sorted order.
func NewSeriesFromString(text string) (*Series, error) {
	if text == "" {
		return nil, fmt.Errorf("periodica: empty series")
	}
	return &Series{inner: series.FromString(text)}, nil
}

// DiscretizeEqualWidth discretizes numeric values into the given number of
// equal-width levels over [min(values), max(values)], using single-letter
// symbols "a", "b", … from lowest to highest level.
func DiscretizeEqualWidth(values []float64, levels int) (*Series, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("periodica: no values")
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	scheme, err := discretize.NewEqualWidth(lo, hi, levels)
	if err != nil {
		return nil, err
	}
	inner, err := scheme.Apply(values, alphabet.Letters(levels))
	if err != nil {
		return nil, err
	}
	return &Series{inner: inner}, nil
}

// DiscretizeBreakpoints discretizes numeric values with explicit ascending
// breakpoints into len(breaks)+1 levels, using single-letter symbols "a",
// "b", … from lowest to highest level.
func DiscretizeBreakpoints(values, breaks []float64) (*Series, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("periodica: no values")
	}
	scheme, err := discretize.NewBreakpoints(breaks)
	if err != nil {
		return nil, err
	}
	inner, err := scheme.Apply(values, alphabet.Letters(scheme.Levels()))
	if err != nil {
		return nil, err
	}
	return &Series{inner: inner}, nil
}

// Len returns the series length n.
func (s *Series) Len() int { return s.inner.Len() }

// Alphabet returns the symbols in level/index order.
func (s *Series) Alphabet() []string { return s.inner.Alphabet().Symbols() }

// String renders the series by concatenating its symbols.
func (s *Series) String() string { return s.inner.String() }

// Engine selects how the convolution components are evaluated. Its String
// method returns the name the query language's "engine" clause spells.
type Engine = core.Engine

const (
	// EngineAuto picks FFT for long series and Naive for short ones.
	EngineAuto = core.EngineAuto
	// EngineNaive rescans the series per candidate period (reference).
	EngineNaive = core.EngineNaive
	// EngineBitset uses word-parallel AND/shift over the mapped vector.
	EngineBitset = core.EngineBitset
	// EngineFFT is the paper's algorithm: per-symbol FFT autocorrelation
	// plus on-demand phase resolution.
	EngineFFT = core.EngineFFT
)

// Options configure a mine. They are the struct spelling of a query's
// mining clauses; QueryFromOptions lifts them to the Query every mining
// entry point takes.
type Options struct {
	// Threshold is the periodicity threshold ψ ∈ (0,1]: the minimum
	// confidence for a symbol periodicity and the minimum support for a
	// pattern. Required.
	Threshold float64
	// MinPeriod and MaxPeriod bound the candidate periods; defaults 1 and
	// n/2.
	MinPeriod int
	MaxPeriod int
	// Engine selects the evaluation strategy.
	Engine Engine
	// MaxPatternPeriod caps the periods for which multi-symbol patterns are
	// enumerated (default 128; negative disables multi-symbol mining).
	MaxPatternPeriod int
	// MaxPatterns caps the number of emitted multi-symbol patterns
	// (default 10000).
	MaxPatterns int
	// MaximalOnly drops every multi-symbol pattern whose fixed symbols are
	// a strict subset of another reported pattern of the same period.
	MaximalOnly bool
	// MinPairs requires at least this many consecutive projection slots
	// behind a periodicity (default 1, the paper's semantics). With the
	// default, a single recurrence at a barely-fitting period counts as
	// confidence 1; raising MinPairs demands statistical mass and greatly
	// reduces both output noise and work at large periods.
	MinPairs int
}

// Periodicity states that Symbol recurs every Period positions at offset
// Position, with the given confidence (the fraction of consecutive
// projection slots at which it held; Definition 1 of the paper). Matches is
// F2, the consecutive projection pairs at which the symbol held; Pairs is
// the number of such pair slots (the denominator).
type Periodicity = result.Periodicity

// Pattern is a periodic pattern of length Period. Text renders it with '*'
// don't-cares (e.g. "ab*"); Support estimates the fraction of period
// occurrences at which it held.
type Pattern = result.Pattern

// Result is the output of a mine: the distinct detected Periods
// (ascending), every symbol Periodicity, the Definition-2
// SingleSymbolPatterns (one per periodicity), the multi-symbol Patterns with
// support ≥ ψ, and whether MaxPatterns Truncated pattern enumeration.
type Result = result.Result

// PeriodConfidence returns the minimum threshold at which period p would be
// detected in s: the maximum confidence over all symbols and positions.
func PeriodConfidence(s *Series, p int) float64 {
	return core.PeriodConfidence(s.inner, p)
}
