package core

import (
	"cmp"
	"slices"
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

// Render returns the pattern with '*' for don't-care positions, e.g. "a*b".
func (pt Pattern) Render(alpha *alphabet.Alphabet) string {
	var b strings.Builder
	b.Grow(pt.TextLen(alpha))
	pt.AppendText(&b, alpha)
	return b.String()
}

// TextLen returns the byte length of the pattern's rendered text.
func (pt Pattern) TextLen(alpha *alphabet.Alphabet) int {
	n := pt.Period - len(pt.Fixed)
	for _, f := range pt.Fixed {
		n += len(alpha.Symbol(f.Symbol))
	}
	return n
}

// AppendText appends the pattern's text (see Render) to b, writing each run
// of don't-cares with bulk writes rather than one byte at a time.
func (pt Pattern) AppendText(b *strings.Builder, alpha *alphabet.Alphabet) {
	l := 0
	for _, f := range pt.Fixed {
		writeDontCares(b, f.Position-l)
		b.WriteString(alpha.Symbol(f.Symbol))
		l = f.Position + 1
	}
	writeDontCares(b, pt.Period-l)
}

const dontCareRun = "****************************************************************"

func writeDontCares(b *strings.Builder, k int) {
	for ; k > len(dontCareRun); k -= len(dontCareRun) {
		b.WriteString(dontCareRun)
	}
	b.WriteString(dontCareRun[:k])
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
// pers must be in canonical order (period, position, symbol). The patterns
// come out in the result order — by period, then descending support, then
// as if written out position by position with a don't-care before every
// symbol and symbols in index order — without a comparator sort: periods
// are walked in order, the DFS finds one period's patterns in the last of
// those orders, and a stable counting sort by count orders them by support,
// whose denominator ⌊n/p⌋ the whole period shares.
//
// sched, when non-nil, supplies cancellation: it is polled between
// occurrence-set builds and ticked every DFS chunk, so a cancelled context
// aborts the stage with that error and no patterns.
func minePatterns(det *detector, pers []SymbolPeriodicity, opt Options, sched *exec.Scheduler) (out []Pattern, truncated bool, err error) {
	var rank []int // counting-sort scratch
	for len(pers) > 0 && pers[0].Period <= opt.MaxPatternPeriod {
		p, end := pers[0].Period, 1
		for end < len(pers) && pers[end].Period == p {
			end++
		}
		group := pers[:end]
		pers = pers[end:]
		if group[0].Position == group[len(group)-1].Position {
			continue // one position: no way to place two fixed symbols
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
		out, rank = appendByCount(out, e.found, rank)
		if e.truncated {
			truncated = true
			break
		}
	}
	return out, truncated, nil
}

// appendByCount appends found to out in descending Count order, stably, and
// returns out with the grown rank scratch. It is a counting sort over the
// range of counts found spans, so it costs O(len(found) + that range).
func appendByCount(out, found []Pattern, rank []int) ([]Pattern, []int) {
	if len(found) < 2 {
		return append(out, found...), rank
	}
	lo, hi := found[0].Count, found[0].Count
	for _, pt := range found[1:] {
		lo, hi = min(lo, pt.Count), max(hi, pt.Count)
	}
	// rank[hi−c] first counts the patterns of count c, then holds the next
	// free index for them in out.
	width := hi - lo + 1
	if cap(rank) < width {
		rank = make([]int, width)
	}
	rank = rank[:width]
	clear(rank)
	for _, pt := range found {
		rank[hi-pt.Count]++
	}
	next := len(out)
	for i, c := range rank {
		rank[i], next = next, next+c
	}
	out = slices.Grow(out, len(found))[:next]
	for _, pt := range found {
		out[rank[hi-pt.Count]] = pt
		rank[hi-pt.Count]++
	}
	return out, rank
}

// compareFixed orders two patterns of one period as if each were written out
// position by position, with a don't-care before every symbol and symbols in
// index order. At the first pin where they differ, a pin at a later
// position means a don't-care where the other pattern is pinned, so that
// pattern comes first; a pattern whose pins are a prefix of the other's
// comes first for the same reason.
func compareFixed(a, b []FixedSymbol) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i].Position != b[i].Position {
			return cmp.Compare(b[i].Position, a[i].Position) // the later pin has a don't-care at the other's
		}
		if a[i].Symbol != b[i].Symbol {
			return cmp.Compare(a[i].Symbol, b[i].Symbol)
		}
	}
	return cmp.Compare(len(a), len(b))
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
	scratch   []*bitvec.Vector // scratch[i] holds the AND of i+2 chosen occurrence sets
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
	// The prune is the emit test applied to the partial pattern's
	// occurrences (support is anti-monotone), so it never drops a pattern
	// whose support equals ψ; at a leaf it is the emit test itself.
	count := 0
	if cur != nil {
		if count = cur.Count(); !qualifies(count, e.total, e.psi) {
			return
		}
	}
	if l == e.period {
		if len(e.chosen) >= 2 {
			if len(e.found) >= e.max {
				e.truncated = true
				return
			}
			fixed := make([]FixedSymbol, len(e.chosen))
			copy(fixed, e.chosen)
			support := float64(count) / float64(e.total)
			e.found = append(e.found, Pattern{Period: e.period, Fixed: fixed, Count: count, Support: support})
		}
		return
	}
	// Don't-care at position l.
	e.walk(l+1, cur)
	// With cur non-nil, i ≥ 0 and cur is scratch[i-1] or an occurrence set;
	// the subtree below writes only scratch[i+1:], so scratch[i] is free.
	i := len(e.chosen) - 1
	for _, sl := range e.slots[l] {
		next := sl.occ
		if cur != nil {
			if i == len(e.scratch) {
				e.scratch = append(e.scratch, nil)
			}
			e.scratch[i] = cur.And(sl.occ, e.scratch[i])
			next = e.scratch[i]
		}
		e.chosen = append(e.chosen, FixedSymbol{Position: l, Symbol: sl.symbol})
		e.walk(l+1, next)
		e.chosen = e.chosen[:len(e.chosen)-1]
	}
}
