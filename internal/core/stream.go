package core

import (
	"fmt"

	"periodica/internal/alphabet"
	"periodica/internal/series"
)

// StreamMiner ingests a symbol stream one element at a time — the single pass
// over the data the paper requires — and mines it once the stream ends. Each
// arriving symbol is touched exactly once; memory is Θ(n) symbol indices plus
// the Θ(σn)-bit mapped vector a mine over Series builds, matching the
// paper's convolution input.
type StreamMiner struct {
	alpha *alphabet.Alphabet
	data  []uint16
}

// NewStreamMiner returns a miner for symbols over alpha.
func NewStreamMiner(alpha *alphabet.Alphabet) *StreamMiner {
	return &StreamMiner{alpha: alpha}
}

// Append ingests the next symbol of the stream.
func (m *StreamMiner) Append(symbol string) error {
	k, ok := m.alpha.Index(symbol)
	if !ok {
		return fmt.Errorf("core: symbol %q not in alphabet %v", symbol, m.alpha)
	}
	m.data = append(m.data, uint16(k))
	return nil
}

// AppendIndex ingests the next symbol by alphabet index.
func (m *StreamMiner) AppendIndex(k int) error {
	if k < 0 || k >= m.alpha.Size() {
		return fmt.Errorf("core: symbol index %d out of range [0,%d)", k, m.alpha.Size())
	}
	m.data = append(m.data, uint16(k))
	return nil
}

// Len returns the number of symbols ingested so far.
func (m *StreamMiner) Len() int { return len(m.data) }

// Series returns the ingested stream as a series.
func (m *StreamMiner) Series() *series.Series {
	return series.FromIndices(m.alpha, m.data)
}
