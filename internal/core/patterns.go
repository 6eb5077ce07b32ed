package core

import (
	"sort"
	"strings"

	"periodica/internal/alphabet"
	"periodica/internal/bitvec"
	"periodica/internal/exec"
)

// DontCare marks a don't-care position in a pattern.
const DontCare = -1

// FixedSymbol pins Symbol at offset Position of a pattern.
type FixedSymbol struct {
	Position int
	Symbol   int
}

// Pattern is a periodic pattern of length Period, stored sparsely: Fixed
// holds the pinned symbols in ascending position order and every other
// position is the don't-care symbol. Support is the estimated fraction of
// period occurrences at which the pattern holds; for single-symbol patterns
// it is the Definition-2 support F2/(⌈(n−l)/p⌉−1), and for multi-symbol
// patterns the Definition-3 estimate |W′_p|/⌊n/p⌋.
type Pattern struct {
	Period  int
	Fixed   []FixedSymbol
	Count   int
	Support float64
}

// FixedSymbols returns the number of non-don't-care positions.
func (pt Pattern) FixedSymbols() int { return len(pt.Fixed) }

// SymbolAt returns the symbol pinned at position l, or DontCare.
func (pt Pattern) SymbolAt(l int) int {
	for _, f := range pt.Fixed {
		if f.Position == l {
			return f.Symbol
		}
	}
	return DontCare
}

// Render writes the pattern with '*' for don't-care positions, e.g. "a*b".
func (pt Pattern) Render(alpha *alphabet.Alphabet) string {
	var b strings.Builder
	next := 0
	for l := 0; l < pt.Period; l++ {
		if next < len(pt.Fixed) && pt.Fixed[next].Position == l {
			b.WriteString(alpha.Symbol(pt.Fixed[next].Symbol))
			next++
		} else {
			b.WriteByte('*')
		}
	}
	return b.String()
}

// singlePattern forms the Definition-2 pattern of a symbol periodicity.
func singlePattern(sp SymbolPeriodicity) Pattern {
	return Pattern{
		Period:  sp.Period,
		Fixed:   []FixedSymbol{{Position: sp.Position, Symbol: sp.Symbol}},
		Count:   sp.F2,
		Support: sp.Confidence,
	}
}

// slot is a qualifying symbol at one pattern position, with the occurrence
// set at which its single-symbol pattern holds.
type slot struct {
	symbol int
	occ    *bitvec.Vector
}

// minePatterns enumerates Definition 3's candidate patterns for every
// detected period within the configured bounds, estimating support by
// counting the occurrences shared by all fixed positions (the paper's W′_p
// tuples with a common occurrence index), and keeps those with ≥ 2 fixed
// symbols and support ≥ ψ. Enumeration is depth-first with the Apriori bound:
// the support of an extension never exceeds that of its prefix, so a prefix
// below threshold prunes its whole subtree.
//
// sched, when non-nil, supplies cancellation and step accounting: it is
// polled between occurrence-set builds and ticked every DFS chunk, so a
// cancelled context (or an exhausted step budget) aborts the stage with that
// error and no patterns.
func minePatterns(det *detector, pers []SymbolPeriodicity, opt Options, sched *exec.Scheduler) (out []Pattern, truncated bool, err error) {
	byPeriod := map[int][]SymbolPeriodicity{}
	for _, sp := range pers {
		if sp.Period <= opt.MaxPatternPeriod {
			byPeriod[sp.Period] = append(byPeriod[sp.Period], sp)
		}
	}
	var periods []int
	for p := range byPeriod {
		periods = append(periods, p)
	}
	sort.Ints(periods)

	for _, p := range periods {
		group := byPeriod[p]
		distinct := map[int]bool{}
		for _, sp := range group {
			distinct[sp.Position] = true
		}
		if len(distinct) < 2 {
			continue // no way to place two fixed symbols
		}
		slots := make([][]slot, p)
		for _, sp := range group {
			if sched != nil {
				if err := sched.Poll(); err != nil {
					return nil, false, err
				}
			}
			slots[sp.Position] = append(slots[sp.Position],
				slot{symbol: sp.Symbol, occ: det.occurrenceSet(sp.Symbol, p, sp.Position)})
		}
		e := &enumerator{
			slots:  slots,
			period: p,
			total:  det.n() / p,
			psi:    opt.Threshold,
			max:    opt.MaxPatterns - len(out),
			sched:  sched,
		}
		e.walk(0, nil)
		if e.err != nil {
			return nil, false, e.err
		}
		out = append(out, e.found...)
		if e.truncated {
			truncated = true
			break
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Period != out[j].Period {
			return out[i].Period < out[j].Period
		}
		if out[i].Support != out[j].Support { //opvet:ignore floatcmp exact tie-break in sort comparator
			return out[i].Support > out[j].Support
		}
		return lessFixed(out[i].Fixed, out[j].Fixed)
	})
	return out, truncated, nil
}

// lessFixed orders sparse patterns by their dense rendering: position by
// position, a pinned symbol at an earlier position sorts after don't-care
// ('*' precedes letters in the dense comparison used before sparsification —
// here we simply order by first differing pinned position, then symbol).
func lessFixed(a, b []FixedSymbol) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i].Position != b[i].Position {
			return a[i].Position > b[i].Position // earlier pin = denser head = later
		}
		if a[i].Symbol != b[i].Symbol {
			return a[i].Symbol < b[i].Symbol
		}
	}
	return len(a) < len(b)
}

// FilterMaximal keeps only the maximal patterns: a pattern is dropped when
// another pattern of the same period pins a strict superset of its
// (position, symbol) pairs — the subsumed pattern adds no information once
// the larger one is reported (cf. Han et al.'s max-pattern notion). Input
// order is preserved among survivors.
func FilterMaximal(patterns []Pattern) []Pattern {
	byPeriod := map[int][]int{}
	for i, pt := range patterns {
		byPeriod[pt.Period] = append(byPeriod[pt.Period], i)
	}
	drop := make([]bool, len(patterns))
	for _, group := range byPeriod {
		for _, i := range group {
			for _, j := range group {
				if i == j || drop[j] {
					continue
				}
				if len(patterns[j].Fixed) > len(patterns[i].Fixed) && subsumes(patterns[j], patterns[i]) {
					drop[i] = true
					break
				}
			}
		}
	}
	var out []Pattern
	for i, pt := range patterns {
		if !drop[i] {
			out = append(out, pt)
		}
	}
	return out
}

// subsumes reports whether big pins every (position, symbol) pair small
// does. Both Fixed slices are in ascending position order.
func subsumes(big, small Pattern) bool {
	j := 0
	for _, f := range small.Fixed {
		for j < len(big.Fixed) && big.Fixed[j].Position < f.Position {
			j++
		}
		if j >= len(big.Fixed) || big.Fixed[j] != f {
			return false
		}
	}
	return true
}

type enumerator struct {
	slots     [][]slot
	period    int
	total     int // ⌊n/p⌋, the support denominator
	psi       float64
	max       int
	chosen    []FixedSymbol
	found     []Pattern
	truncated bool
	sched     *exec.Scheduler // optional cancellation/step accounting
	steps     int
	err       error
}

// enumTickEvery is the DFS chunk size between scheduler ticks: large enough
// to keep the atomic step counter off the recursion hot path, small enough
// that cancellation lands within microseconds.
const enumTickEvery = 1024

// walk extends the pattern at position l with cur = AND of the chosen
// occurrence sets (nil while no symbol chosen yet).
func (e *enumerator) walk(l int, cur *bitvec.Vector) {
	if e.truncated || e.err != nil {
		return
	}
	// The subtree under a node can be exponentially large, so the Apriori
	// prune alone does not bound the time between cancellation polls; an
	// explicit step counter does.
	e.steps++
	if e.sched != nil && e.steps&(enumTickEvery-1) == 0 {
		if err := e.sched.Tick(enumTickEvery); err != nil {
			e.err = err
			return
		}
	}
	// Divide as the support test below does, so the prune never drops a
	// pattern whose support equals ψ.
	if cur != nil && float64(cur.Count())/float64(e.total) < e.psi {
		return
	}
	if l == e.period {
		if len(e.chosen) >= 2 {
			count := cur.Count()
			support := float64(count) / float64(e.total)
			if support >= e.psi {
				if len(e.found) >= e.max {
					e.truncated = true
					return
				}
				fixed := make([]FixedSymbol, len(e.chosen))
				copy(fixed, e.chosen)
				e.found = append(e.found, Pattern{Period: e.period, Fixed: fixed, Count: count, Support: support})
			}
		}
		return
	}
	// Don't-care at position l.
	e.walk(l+1, cur)
	for _, sl := range e.slots[l] {
		next := sl.occ
		if cur != nil {
			next = cur.And(sl.occ, nil)
		}
		e.chosen = append(e.chosen, FixedSymbol{Position: l, Symbol: sl.symbol})
		e.walk(l+1, next)
		e.chosen = e.chosen[:len(e.chosen)-1]
	}
}
