// Package result holds the miner's public result types and the one
// conversion from core's index-based result to them. The root package
// re-exports the types as aliases, and both the root package and the
// distributed coordinator convert through FromCore, so a mined result reads
// the same whichever path produced it.
package result

import (
	"strings"

	"periodica/internal/alphabet"
	"periodica/internal/core"
)

// Periodicity states that Symbol recurs every Period positions at offset
// Position, with the given confidence (the fraction of consecutive
// projection slots at which it held; Definition 1 of the paper).
type Periodicity struct {
	Symbol   string
	Period   int
	Position int
	// Matches is F2: the consecutive projection pairs at which the symbol
	// held; Pairs is the number of such pair slots (the denominator).
	Matches    int
	Pairs      int
	Confidence float64
}

// Pattern is a periodic pattern of length Period. Text renders it with '*'
// don't-cares (e.g. "ab*"); Support estimates the fraction of period
// occurrences at which it held.
type Pattern struct {
	Period  int
	Text    string
	Support float64
}

// Result is the output of a mine.
type Result struct {
	// Periods lists the distinct detected period values, ascending.
	Periods []int
	// Periodicities lists every detected symbol periodicity.
	Periodicities []Periodicity
	// SingleSymbolPatterns are the Definition-2 patterns, one per
	// periodicity.
	SingleSymbolPatterns []Pattern
	// Patterns are multi-symbol candidate patterns with support ≥ ψ.
	Patterns []Pattern
	// Truncated reports that MaxPatterns stopped pattern enumeration early.
	Truncated bool
}

// FromCore converts a core result over alpha to the public form. With
// maximalOnly it keeps only the maximal multi-symbol patterns
// (core.FilterMaximal).
func FromCore(alpha *alphabet.Alphabet, res *core.Result, maximalOnly bool) *Result {
	multis := res.Patterns
	if maximalOnly {
		multis = core.FilterMaximal(multis)
	}
	singles, pats := patterns(alpha, res.Periodicities, multis)
	return &Result{
		Periods:              res.Periods,
		Periodicities:        Periodicities(alpha, res.Periodicities),
		SingleSymbolPatterns: singles,
		Patterns:             pats,
		Truncated:            res.PatternsTruncated,
	}
}

// Periodicities converts core periodicities over alpha to the public form;
// an empty input converts to nil.
func Periodicities(alpha *alphabet.Alphabet, pers []core.SymbolPeriodicity) []Periodicity {
	if len(pers) == 0 {
		return nil
	}
	out := make([]Periodicity, len(pers))
	for i, sp := range pers {
		out[i] = Periodicity{
			Symbol:     alpha.Symbol(sp.Symbol),
			Period:     sp.Period,
			Position:   sp.Position,
			Matches:    sp.F2,
			Pairs:      sp.Pairs,
			Confidence: sp.Confidence,
		}
	}
	return out
}

// patterns converts to the public form the Definition-2 pattern of every
// periodicity, and the multi-symbol patterns; an empty list converts to nil.
//
// A single-symbol text is one symbol at offset l of a length-p pattern, so
// it is a window of its symbol's ruler: P−1 don't-cares, the symbol, P−1
// don't-cares, where P is the symbol's largest period. The window of (p, l)
// starts l bytes before the symbol and is p−1+len(symbol) bytes long. One
// pre-sized buffer holds every ruler and then every multi-symbol text, and
// each Text is a slice of it. So the conversion allocates a fixed number of
// times whatever the pattern count, and a symbol's single-symbol text costs
// at most twice its longest text, not p bytes per periodicity.
func patterns(alpha *alphabet.Alphabet, pers []core.SymbolPeriodicity, multis []core.Pattern) (singles, out []Pattern) {
	syms := alpha.Symbols()
	// center[k] is first symbol k's largest period (0 if it has none), then
	// the offset in the buffer of its ruler's symbol.
	var center []int
	size := 0
	if len(pers) > 0 {
		center = make([]int, len(syms))
		for _, sp := range pers {
			center[sp.Symbol] = max(center[sp.Symbol], sp.Period)
		}
		for k, p := range center {
			if p > 0 {
				size += 2*(p-1) + len(syms[k])
			}
		}
	}
	for _, pt := range multis {
		size += pt.TextLen(alpha)
	}
	var b strings.Builder
	b.Grow(size)
	var fixed [1]core.FixedSymbol
	for k, p := range center {
		if p > 0 {
			// A ruler renders as the length-(2p−1) pattern that pins k at
			// offset p−1.
			fixed[0] = core.FixedSymbol{Position: p - 1, Symbol: k}
			center[k] = b.Len() + p - 1
			core.Pattern{Period: 2*p - 1, Fixed: fixed[:]}.AppendText(&b, alpha)
		}
	}
	at := b.Len()
	for _, pt := range multis {
		pt.AppendText(&b, alpha)
	}
	text := b.String()
	if len(pers) > 0 {
		singles = make([]Pattern, len(pers))
		for i, sp := range pers {
			from := center[sp.Symbol] - sp.Position
			to := from + sp.Period - 1 + len(syms[sp.Symbol])
			singles[i] = Pattern{Period: sp.Period, Text: text[from:to], Support: sp.Confidence}
		}
	}
	if len(multis) > 0 {
		out = make([]Pattern, len(multis))
		for i, pt := range multis {
			end := at + pt.TextLen(alpha)
			out[i] = Pattern{Period: pt.Period, Text: text[at:end], Support: pt.Support}
			at = end
		}
	}
	return singles, out
}
