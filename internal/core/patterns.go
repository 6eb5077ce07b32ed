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

// level is a pattern position that has at least one slot, with its slots in
// ascending symbol order.
type level struct {
	pos   int
	slots []slot
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
// whose denominator ⌊n/p⌋ the whole period shares. One enumerator serves
// the whole mine, and the output is allocated once, at its final length,
// after the last period.
//
// sched, when non-nil, supplies cancellation: it is polled between
// occurrence-set builds and ticked every DFS chunk, so a cancelled context
// aborts the stage with that error and no patterns.
func minePatterns(det *detector, pers []SymbolPeriodicity, opt Options, sched *exec.Scheduler) (out []Pattern, truncated bool, err error) {
	e := &enumerator{psi: opt.Threshold, max: opt.MaxPatterns, sched: sched}
	var slots []slot
	var levels []level
	var ends []int // e.n after each enumerated period
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
		slots, levels = slots[:0], levels[:0]
		for _, sp := range group {
			if sched != nil {
				if err := sched.Poll(); err != nil {
					return nil, false, err
				}
			}
			slots = append(slots, slot{symbol: sp.Symbol, occ: det.occurrenceSet(sp.Symbol, p, sp.Position)})
		}
		for i := 0; i < len(group); {
			j := i + 1
			for j < len(group) && group[j].Position == group[i].Position {
				j++
			}
			levels = append(levels, level{pos: group[i].Position, slots: slots[i:j]})
			i = j
		}
		e.enumerate(p, det.n()/p, levels)
		if e.err != nil {
			return nil, false, e.err
		}
		ends = append(ends, e.n)
		if e.truncated {
			break
		}
	}
	if e.n > 0 {
		out = make([]Pattern, e.n)
	}
	var rank []int // counting-sort scratch
	from := 0
	for _, to := range ends {
		rank = e.sortByCount(out, from, to, rank)
		from = to
	}
	return out, e.truncated, nil
}

// sortByCount writes found[from:to], one period's patterns in DFS order, to
// out[from:to] in descending Count order, stably, and returns the grown rank
// scratch. It is a counting sort over the range of counts the span covers,
// so it costs O(to − from + that range).
func (e *enumerator) sortByCount(out []Pattern, from, to int, rank []int) []int {
	if to-from < 2 {
		for i := from; i < to; i++ {
			out[i] = *e.at(i)
		}
		return rank
	}
	lo, hi := e.at(from).Count, e.at(from).Count
	for i := from + 1; i < to; i++ {
		c := e.at(i).Count
		lo, hi = min(lo, c), max(hi, c)
	}
	// rank[hi−c] first counts the patterns of count c, then holds the next
	// free index for them in out.
	width := hi - lo + 1
	if cap(rank) < width {
		rank = make([]int, width)
	}
	rank = rank[:width]
	clear(rank)
	for i := from; i < to; i++ {
		rank[hi-e.at(i).Count]++
	}
	next := from
	for i, c := range rank {
		rank[i], next = next, next+c
	}
	for i := from; i < to; i++ {
		pt := e.at(i)
		out[rank[hi-pt.Count]] = *pt
		rank[hi-pt.Count]++
	}
	return rank
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

// enumerator runs the Definition-3 DFS of one mine, one period at a time.
// The patterns it finds, across periods, are kept in blocks of foundBlock,
// and their Fixed lists are cut from the blocks of an arena, so neither list
// is copied as it grows. Only the first block of each starts small and
// doubles, so that a mine of a few patterns allocates for a few.
type enumerator struct {
	levels    []level // the current period's positions with slots
	period    int
	total     int // ⌊n/p⌋, the support denominator
	psi       float64
	max       int
	chosen    []FixedSymbol
	scratch   []*bitvec.Vector // scratch[i] holds the AND of i+2 chosen occurrence sets
	found     [][]Pattern      // full blocks of foundBlock patterns, then the last
	n         int              // patterns found
	arena     []FixedSymbol    // the arena block Fixed lists are cut from
	truncated bool
	sched     *exec.Scheduler // optional cancellation/step accounting
	steps     int
	err       error
}

const (
	// foundBlock is the number of patterns in one block of found; the first
	// block starts at firstFoundBlock and doubles up to it.
	foundBlock      = 1024
	firstFoundBlock = 64
	// arenaBlock is the size, in pins, that arena blocks double up to from
	// firstArenaBlock.
	arenaBlock      = 4096
	firstArenaBlock = 64
)

// enumTickEvery is the DFS chunk size between scheduler ticks: large enough
// to keep the atomic step counter off the recursion hot path, small enough
// that cancellation lands within microseconds.
const enumTickEvery = 1024

// enumerate appends to found the patterns of period p, whose support
// denominator is total, over levels: the positions that have slots,
// ascending.
func (e *enumerator) enumerate(p, total int, levels []level) {
	e.period, e.total, e.levels = p, total, levels
	e.walk(0, nil, 0)
}

// at returns the i-th pattern found.
func (e *enumerator) at(i int) *Pattern {
	return &e.found[i/foundBlock][i%foundBlock]
}

// push appends pt to found, starting a block when the last one is full. No
// block holds more than the patterns the cap still allows.
func (e *enumerator) push(pt Pattern) {
	b := len(e.found) - 1
	if e.n%foundBlock == 0 {
		size := foundBlock
		if e.n == 0 {
			size = firstFoundBlock
		}
		e.found = append(e.found, make([]Pattern, 0, min(size, e.max-e.n)))
		b++
	} else if k := len(e.found[b]); k == cap(e.found[b]) {
		e.found[b] = slices.Grow(e.found[b], min(k, foundBlock-k, e.max-e.n))
	}
	e.found[b] = append(e.found[b], pt)
	e.n++
}

// fixed returns a copy of chosen cut from the arena, with its capacity
// capped at its length so that no append to one pattern's Fixed can write
// into the next one's.
func (e *enumerator) fixed() []FixedSymbol {
	k := len(e.chosen)
	if cap(e.arena)-len(e.arena) < k {
		e.arena = make([]FixedSymbol, 0, max(k, firstArenaBlock, min(arenaBlock, 2*cap(e.arena))))
	}
	i := len(e.arena)
	e.arena = append(e.arena, e.chosen...)
	return e.arena[i : i+k : i+k]
}

// walk extends the pattern at level j with cur = AND of the chosen
// occurrence sets (nil while no symbol chosen yet) and count = its size.
// Positions between levels have no slot, so a don't-care is the only choice
// there and the walk steps over them.
func (e *enumerator) walk(j int, cur *bitvec.Vector, count int) {
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
	if j == len(e.levels) {
		if len(e.chosen) >= 2 {
			if e.n >= e.max {
				e.truncated = true
				return
			}
			support := float64(count) / float64(e.total)
			e.push(Pattern{Period: e.period, Fixed: e.fixed(), Count: count, Support: support})
		}
		return
	}
	lv := e.levels[j]
	// Don't-care at lv.pos: the prefix, and with it its count, is unchanged.
	e.walk(j+1, cur, count)
	// With cur non-nil, i ≥ 0 and cur is scratch[i-1] or an occurrence set;
	// the subtree below writes only scratch[i+1:], so scratch[i] is free.
	i := len(e.chosen) - 1
	for _, sl := range lv.slots {
		next := sl.occ
		if cur != nil {
			if i == len(e.scratch) {
				e.scratch = append(e.scratch, nil)
			}
			e.scratch[i] = cur.And(sl.occ, e.scratch[i])
			next = e.scratch[i]
		}
		// The prune is the emit test applied to the extended pattern's
		// occurrences (support is anti-monotone), so it never drops a
		// pattern whose support equals ψ.
		c := next.Count()
		if !qualifies(c, e.total, e.psi) {
			continue
		}
		e.chosen = append(e.chosen, FixedSymbol{Position: lv.pos, Symbol: sl.symbol})
		e.walk(j+1, next, c)
		e.chosen = e.chosen[:len(e.chosen)-1]
	}
}
