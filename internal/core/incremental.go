package core

import (
	"slices"

	"periodica/internal/alphabet"
	"periodica/internal/series"
)

// IncrementalMiner maintains the symbol periodicities of a growing series
// online, in the spirit of the incremental/online/merge mining the paper's
// authors develop in its reference [4]: every arriving symbol updates the
// count table in O(maxPeriod), so the mining result for the stream seen so
// far is available at any moment without rescanning. Unlike a bare Counts it
// keeps the data, so the stream can also be mined for patterns. Two miners
// over adjacent segments of one series combine with Merge — the "merge
// mining" operation.
type IncrementalMiner struct {
	alpha *alphabet.Alphabet
	data  []uint16
	Counts
}

// NewIncrementalMiner returns a miner tracking periods 1..maxPeriod.
func NewIncrementalMiner(alpha *alphabet.Alphabet, maxPeriod int) (*IncrementalMiner, error) {
	c, err := NewCounts(alpha.Size(), maxPeriod)
	if err != nil {
		return nil, err
	}
	return &IncrementalMiner{alpha: alpha, Counts: *c}, nil
}

// Append ingests the next symbol index; O(maxPeriod).
func (m *IncrementalMiner) Append(k int) error {
	if err := m.Counts.Append(k); err != nil {
		return err
	}
	m.data = append(m.data, uint16(k))
	return nil
}

// AppendSymbol ingests the next symbol by name.
func (m *IncrementalMiner) AppendSymbol(symbol string) error {
	k, err := SymbolIndex(m.alpha, symbol)
	if err != nil {
		return err
	}
	return m.Append(k)
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

// Len returns the number of symbols ingested.
func (m *IncrementalMiner) Len() int { return len(m.data) }

// Series returns the ingested stream as a series.
func (m *IncrementalMiner) Series() *series.Series {
	return series.FromIndices(m.alpha, m.data)
}

// MineOptions clamps a full mine's period range to the tracked bound, so
// MineWorkers over Series() with the result mines exactly the periods
// Periodicities answers over.
func (m *IncrementalMiner) MineOptions(opt Options) Options {
	return clampPeriods(opt, m.MaxPeriod, m.Length)
}

// Merge combines two miners over adjacent segments of one series (m holding
// the earlier segment, next the later) into a miner equivalent to having
// ingested the concatenation. Both miners must share the symbols, in the
// same order, and the period bound. m is updated in place; next is left
// untouched.
func (m *IncrementalMiner) Merge(next *IncrementalMiner) error {
	if !slices.Equal(m.alpha.Symbols(), next.alpha.Symbols()) {
		return invalidf("core: merging miners with different alphabets %v and %v", m.alpha, next.alpha)
	}
	if err := m.Counts.Merge(&next.Counts); err != nil {
		return err
	}
	m.data = append(m.data, next.data...)
	return nil
}
