package core

import (
	"fmt"
	"unsafe"

	"periodica/internal/alphabet"
	"periodica/internal/series"
)

// Counts is the count table every online answer rests on: Table[k][p][l] is
// F2(s_k, π_{p,l}) over the Length symbols seen so far, for periods
// 1..MaxPeriod, with phase l local to the start of the stretch. The table
// grows with the stream: a symbol's plane of MaxPeriod+1 row headers is
// made on its first match, and a phase row on the first match of its
// (k, p), so an unseen symbol costs one nil header. Head and Tail keep the
// first and last min(MaxPeriod, Length) symbols — all that Append and Merge
// need — so memory is at most O(σ·MaxPeriod² + MaxPeriod) whatever the
// stream length: the data-stream setting the paper's introduction
// motivates. Each appended symbol costs O(MaxPeriod); two tables over
// adjacent stretches merge in O(σ·MaxPeriod²). The store persists one per
// segment as its summary; the public Counter maintains one online, and
// WindowMiner one over a sliding window.
type Counts struct {
	Sigma     int
	MaxPeriod int
	Length    int
	Head      []uint16
	Tail      []uint16
	Table     [][][]int32
}

// NewCounts returns an empty table for a σ-symbol stream tracking periods
// 1..maxPeriod: σ nil planes, so nothing of size σ·maxPeriod is allocated
// before a symbol arrives. Symbols are held as uint16, so σ is at most
// series.MaxAlphabet.
func NewCounts(sigma, maxPeriod int) (*Counts, error) {
	if sigma < 1 || sigma > series.MaxAlphabet {
		return nil, invalidf("core: sigma %d outside [1,%d]", sigma, series.MaxAlphabet)
	}
	if maxPeriod < 1 {
		return nil, invalidf("core: maxPeriod %d < 1", maxPeriod)
	}
	return &Counts{Sigma: sigma, MaxPeriod: maxPeriod, Table: make([][][]int32, sigma)}, nil
}

// add adds delta to F2(s_k, π_{p,l}), making the plane and the row it
// needs on first use.
func (c *Counts) add(k, p, l int, delta int32) {
	if c.Table[k] == nil {
		c.Table[k] = make([][]int32, c.MaxPeriod+1)
	}
	if c.Table[k][p] == nil {
		c.Table[k][p] = make([]int32, p)
	}
	c.Table[k][p][l] += delta
}

// Append ingests the next symbol index; O(MaxPeriod).
func (c *Counts) Append(k int) error {
	if k < 0 || k >= c.Sigma {
		return invalidf("core: symbol index %d out of range [0,%d)", k, c.Sigma)
	}
	// The new position i closes a lag-p match (i−p, i) whenever t_{i−p} = k;
	// t_{i−p} is Tail[t−p] for every tracked p ≤ i.
	i, t := c.Length, len(c.Tail)
	for p := 1; p <= t; p++ {
		if int(c.Tail[t-p]) == k {
			c.add(k, p, (i-p)%p, 1)
		}
	}
	if len(c.Head) < c.MaxPeriod {
		c.Head = append(c.Head, uint16(k))
	}
	if t < c.MaxPeriod {
		c.Tail = append(c.Tail, uint16(k))
	} else {
		copy(c.Tail, c.Tail[1:])
		c.Tail[t-1] = uint16(k)
	}
	c.Length++
	return nil
}

// Merge appends the stretch next covers to the one c covers, making c the
// table of the concatenation: the counts add (next's phases shift by c.Length), the
// matches spanning the boundary are stitched from c.Tail and next.Head, and
// Head/Tail are recomputed. Both tables must share σ and MaxPeriod. next is
// left untouched.
func (c *Counts) Merge(next *Counts) error {
	if c.Sigma != next.Sigma || c.MaxPeriod != next.MaxPeriod {
		return invalidf("core: merging count tables of shape σ=%d maxPeriod=%d and σ=%d maxPeriod=%d",
			c.Sigma, c.MaxPeriod, next.Sigma, next.MaxPeriod)
	}
	offset := c.Length
	for k, rows := range next.Table {
		for p, row := range rows {
			for l, f := range row {
				if f != 0 {
					c.add(k, p, (l+offset)%p, f)
				}
			}
		}
	}
	// Boundary matches: start i among c's last symbols (Tail covers
	// positions tailStart..offset−1), partner i+p within next.Head.
	tailStart := offset - len(c.Tail)
	for p := 1; p <= c.MaxPeriod; p++ {
		for i := max(tailStart, offset-p); i < offset; i++ {
			j := i + p - offset
			if j >= len(next.Head) {
				break
			}
			if c.Tail[i-tailStart] == next.Head[j] {
				c.add(int(next.Head[j]), p, i%p, 1)
			}
		}
	}
	c.Length += next.Length
	c.Head = append(c.Head, next.Head[:min(len(next.Head), c.MaxPeriod-len(c.Head))]...)
	c.Tail = append(c.Tail, next.Tail...)
	if len(c.Tail) > c.MaxPeriod {
		c.Tail = append([]uint16(nil), c.Tail[len(c.Tail)-c.MaxPeriod:]...)
	}
	return nil
}

// SymbolIndex returns the index of symbol in alpha, or an error matching
// ErrInvalidInput when alpha does not hold it.
func SymbolIndex(alpha *alphabet.Alphabet, symbol string) (int, error) {
	k, ok := alpha.Index(symbol)
	if !ok {
		return 0, invalidf("core: symbol %q not in alphabet %v", symbol, alpha)
	}
	return k, nil
}

// F2 returns the maintained count F2(s_k, π_{p,l}).
func (c *Counts) F2(k, p, l int) int {
	if p < 1 || p > c.MaxPeriod || l < 0 || l >= p {
		panic(fmt.Sprintf("core: F2(%d,%d,%d) outside tracked range", k, p, l))
	}
	if c.Table[k] == nil || c.Table[k][p] == nil {
		return 0
	}
	return int(c.Table[k][p][l])
}

// MemoryBytes estimates the table's resident size, to document its
// independence from the stream length: the σ plane headers, the
// MaxPeriod+1 row headers of each plane and the phase rows made so far,
// and Head and Tail.
func (c *Counts) MemoryBytes() int {
	total := 2*(len(c.Head)+len(c.Tail)) + len(c.Table)*int(unsafe.Sizeof([][]int32(nil)))
	for _, rows := range c.Table {
		total += len(rows) * int(unsafe.Sizeof([]int32(nil)))
		for _, row := range rows {
			total += 4 * len(row)
		}
	}
	return total
}

// Periodicities returns the symbol periodicities of the stretch that a full
// mine with opt reports, from the counts alone, in O(σ·MaxPeriod²) with no
// pass over the data. The period range is clipped to the tracked bound.
func (c *Counts) Periodicities(opt Options) ([]SymbolPeriodicity, error) {
	n := c.Length
	return scanTable(c.Table, c.MaxPeriod, n, func(p, l int) int { return pairsAt(n, p, l) }, opt)
}

// clampPeriods fits a mine's period range to a table tracking periods
// 1..tracked over n symbols: an unset maximum, or one above the bound,
// becomes min(tracked, n/2), so every table scan answers over the periods
// a mine of the same stretch sweeps.
func clampPeriods(opt Options, tracked, n int) Options {
	if opt.MaxPeriod == 0 || opt.MaxPeriod > tracked {
		opt.MaxPeriod = min(tracked, n/2)
	}
	if opt.MaxPeriod < 1 {
		opt.MaxPeriod = 1
	}
	return opt
}

// scanTable emits, in (period, position, symbol) order, every nonzero count
// of table over a stretch of n symbols that a mine with opt would report:
// the same defaults, period band, MinPairs and ψ, with the period range
// clipped to the tracked bound. pairs gives the Definition-1 denominator
// of each (period, position). A stretch of fewer than two symbols holds no
// pair, so it answers nil once opt passes the length-independent checks.
func scanTable(table [][][]int32, tracked, n int, pairs func(p, l int) int, opt Options) ([]SymbolPeriodicity, error) {
	if n < 2 {
		sp := SpecFromOptions(opt)
		if err := sp.Validate(); err != nil {
			return nil, invalidf("core: %v", err)
		}
		return nil, nil
	}
	opt, err := clampPeriods(opt, tracked, n).withDefaults(n)
	if err != nil {
		return nil, err
	}
	var out []SymbolPeriodicity
	for p := opt.MinPeriod; p <= opt.MaxPeriod && p < n; p++ {
		for l := 0; l < p; l++ {
			np := pairs(p, l)
			if np < opt.MinPairs {
				continue
			}
			for k, rows := range table {
				if rows == nil || rows[p] == nil {
					continue
				}
				if f2 := int(rows[p][l]); f2 != 0 && qualifies(f2, np, opt.Threshold) {
					out = append(out, periodicity(k, p, l, f2, np))
				}
			}
		}
	}
	return out, nil
}
