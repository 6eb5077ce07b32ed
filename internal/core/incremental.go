package core

import (
	"fmt"

	"periodica/internal/alphabet"
	"periodica/internal/series"
)

// IncrementalMiner maintains the symbol periodicities of a growing series
// online, in the spirit of the incremental/online/merge mining the paper's
// authors develop in its reference [4]: every arriving symbol updates the
// per-(symbol, period, position) consecutive-match counts F2 for all periods
// up to a fixed bound in O(maxPeriod) time, so the mining result for the
// stream seen so far is available at any moment without rescanning. Two
// miners over adjacent segments of one series can be combined with Merge,
// which stitches the boundary matches — the "merge mining" operation.
type IncrementalMiner struct {
	alpha     *alphabet.Alphabet
	maxPeriod int
	data      []uint16
	// f2[k][p][l] = F2(s_k, π_{p,l}) restricted to matches seen so far;
	// the l-arrays are allocated lazily per (k,p) on first match.
	f2 [][][]int32
}

// NewIncrementalMiner returns a miner tracking periods 1..maxPeriod.
func NewIncrementalMiner(alpha *alphabet.Alphabet, maxPeriod int) (*IncrementalMiner, error) {
	if maxPeriod < 1 {
		return nil, fmt.Errorf("core: maxPeriod %d < 1", maxPeriod)
	}
	m := &IncrementalMiner{alpha: alpha, maxPeriod: maxPeriod, f2: make([][][]int32, alpha.Size())}
	for k := range m.f2 {
		m.f2[k] = make([][]int32, maxPeriod+1)
	}
	return m, nil
}

// Append ingests the next symbol index; O(maxPeriod).
func (m *IncrementalMiner) Append(k int) error {
	if k < 0 || k >= m.alpha.Size() {
		return fmt.Errorf("core: symbol index %d out of range [0,%d)", k, m.alpha.Size())
	}
	i := len(m.data)
	m.data = append(m.data, uint16(k))
	// The new position closes a lag-p match (i−p, i) whenever t_{i−p} = k.
	for p := 1; p <= m.maxPeriod && p <= i; p++ {
		if int(m.data[i-p]) == k {
			m.bump(k, p, (i-p)%p)
		}
	}
	return nil
}

// AppendSymbol ingests the next symbol by name.
func (m *IncrementalMiner) AppendSymbol(symbol string) error {
	k, ok := m.alpha.Index(symbol)
	if !ok {
		return fmt.Errorf("core: symbol %q not in alphabet %v", symbol, m.alpha)
	}
	return m.Append(k)
}

func (m *IncrementalMiner) bump(k, p, l int) {
	if m.f2[k][p] == nil {
		m.f2[k][p] = make([]int32, p)
	}
	m.f2[k][p][l]++
}

// Len returns the number of symbols ingested.
func (m *IncrementalMiner) Len() int { return len(m.data) }

// MaxPeriod returns the tracked period bound.
func (m *IncrementalMiner) MaxPeriod() int { return m.maxPeriod }

// Series returns the ingested stream as a series.
func (m *IncrementalMiner) Series() *series.Series {
	return series.FromIndices(m.alpha, m.data)
}

// F2 returns the maintained count F2(s_k, π_{p,l}) for the stream so far.
func (m *IncrementalMiner) F2(k, p, l int) int {
	if p < 1 || p > m.maxPeriod || l < 0 || l >= p {
		panic(fmt.Sprintf("core: F2(%d,%d,%d) outside tracked range", k, p, l))
	}
	if m.f2[k][p] == nil {
		return 0
	}
	return int(m.f2[k][p][l])
}

// Periodicities returns the symbol periodicities of the stream seen so far
// at threshold psi, identical to what a full mine would report for periods
// up to MaxPeriod — but computed from the maintained counts in
// O(σ · maxPeriod²/2) with no pass over the data.
func (m *IncrementalMiner) Periodicities(psi float64) ([]SymbolPeriodicity, error) {
	if psi <= 0 || psi > 1 {
		return nil, fmt.Errorf("core: threshold ψ=%v outside (0,1]", psi)
	}
	n := len(m.data)
	var out []SymbolPeriodicity
	for p := 1; p <= m.maxPeriod && p < n; p++ {
		for l := 0; l < p; l++ {
			pairs := pairsAt(n, p, l)
			if pairs < 1 {
				continue
			}
			for k := range m.f2 {
				if m.f2[k][p] == nil {
					continue
				}
				f2 := int(m.f2[k][p][l])
				if f2 == 0 {
					continue
				}
				conf := float64(f2) / float64(pairs)
				if conf >= psi {
					out = append(out, SymbolPeriodicity{
						Symbol: k, Period: p, Position: l,
						F2: f2, Pairs: pairs, Confidence: conf,
					})
				}
			}
		}
	}
	return out, nil
}

// MineOptions clamps a full mine's period range to the tracked bound, so
// MineWorkers over Series() with the result mines exactly the periods the
// miner maintains.
func (m *IncrementalMiner) MineOptions(opt Options) Options {
	if opt.MaxPeriod == 0 || opt.MaxPeriod > m.maxPeriod {
		opt.MaxPeriod = min(m.maxPeriod, len(m.data)/2)
	}
	if opt.MaxPeriod < 1 {
		opt.MaxPeriod = 1
	}
	return opt
}

// Merge combines two miners over adjacent segments of one series (m holding
// the earlier segment, next the later) into a miner equivalent to having
// ingested the concatenation: the maintained counts add, and the matches
// that span the segment boundary are stitched in O(maxPeriod²). Both miners
// must share the alphabet and period bound. m is updated in place; next is
// left untouched.
func (m *IncrementalMiner) Merge(next *IncrementalMiner) error {
	if m.alpha != next.alpha {
		return fmt.Errorf("core: merging miners with different alphabets")
	}
	if m.maxPeriod != next.maxPeriod {
		return fmt.Errorf("core: merging miners with period bounds %d vs %d", m.maxPeriod, next.maxPeriod)
	}
	offset := len(m.data)
	// Segment-internal counts add; next's phases shift by the offset.
	for k := range next.f2 {
		for p := 1; p <= next.maxPeriod; p++ {
			counts := next.f2[k][p]
			if counts == nil {
				continue
			}
			for l, c := range counts {
				if c != 0 {
					m.addF2(k, p, (l+offset)%p, c)
				}
			}
		}
	}
	// Boundary matches: start position i in the last maxPeriod symbols of
	// the first segment, partner i+p in the second.
	for p := 1; p <= m.maxPeriod; p++ {
		for i := max(0, offset-p); i < offset; i++ {
			j := i + p - offset // position within next
			if j >= len(next.data) {
				continue
			}
			if m.data[i] == next.data[j] {
				m.bump(int(m.data[i]), p, i%p)
			}
		}
	}
	m.data = append(m.data, next.data...)
	return nil
}

func (m *IncrementalMiner) addF2(k, p, l int, c int32) {
	if m.f2[k][p] == nil {
		m.f2[k][p] = make([]int32, p)
	}
	m.f2[k][p][l] += c
}
