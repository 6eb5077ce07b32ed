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
	singles, pats := patterns(alpha, res.SingleSymbol, multis)
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

// patterns converts the single-symbol and the multi-symbol patterns to the
// public form; an empty list converts to nil. Every text of both lists is
// rendered into one pre-sized buffer and each Text is a slice of it, so the
// conversion allocates a fixed number of times whatever the pattern count.
func patterns(alpha *alphabet.Alphabet, singles, multis []core.Pattern) (outSingles, outMultis []Pattern) {
	lists := [2][]core.Pattern{singles, multis}
	size := 0
	for _, pats := range lists {
		for _, pt := range pats {
			size += pt.TextLen(alpha)
		}
	}
	var b strings.Builder
	b.Grow(size)
	for _, pats := range lists {
		for _, pt := range pats {
			pt.AppendText(&b, alpha)
		}
	}
	text := b.String()
	var out [2][]Pattern
	at := 0
	for i, pats := range lists {
		if len(pats) == 0 {
			continue
		}
		out[i] = make([]Pattern, len(pats))
		for j, pt := range pats {
			end := at + pt.TextLen(alpha)
			out[i][j] = Pattern{Period: pt.Period, Text: text[at:end], Support: pt.Support}
			at = end
		}
	}
	return out[0], out[1]
}
