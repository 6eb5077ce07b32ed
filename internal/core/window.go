package core

// WindowMiner maintains symbol periodicities over a sliding window of the
// most recent symbols — the monitoring flavor of the paper's data-stream
// motivation: old behaviour ages out instead of accumulating. It is a
// Counts table over the whole stream plus a ring of the last window
// symbols: arriving symbols add their lag-p matches through Counts.Append,
// and a symbol leaving the window retracts the matches it starts, read from
// the ring, so the table always holds the batch counts of the current
// window. The table's Length is the absolute stream index, so its phases
// are absolute stream phases (stream index mod p), which keeps a stable
// pattern at a stable label while the window slides.
type WindowMiner struct {
	counts *Counts
	window int
	ring   []uint16 // symbol i at ring[i%window]; grows to window, then wraps
}

// NewWindowMiner returns a miner over a window of the given size, tracking
// periods 1..maxPeriod. The window must be larger than maxPeriod, so every
// partner of a lag match is still in the ring when either end leaves it;
// σ and maxPeriod are checked as NewCounts checks them.
func NewWindowMiner(sigma, maxPeriod, window int) (*WindowMiner, error) {
	c, err := NewCounts(sigma, maxPeriod)
	if err != nil {
		return nil, err
	}
	if window <= maxPeriod {
		return nil, invalidf("core: window %d must exceed maxPeriod %d", window, maxPeriod)
	}
	return &WindowMiner{counts: c, window: window}, nil
}

// Append ingests the next symbol, evicting the oldest when the window is
// full; O(maxPeriod).
func (m *WindowMiner) Append(k int) error {
	if err := m.counts.Append(k); err != nil {
		return err
	}
	abs := m.counts.Length - 1
	if abs < m.window {
		m.ring = append(m.ring, uint16(k))
		return nil
	}
	// Retract the matches the evicted symbol starts; its partners
	// old+1..old+maxPeriod all precede abs, so the ring still holds them.
	old := abs - m.window
	gone := m.ring[old%m.window]
	for p := 1; p <= m.counts.MaxPeriod; p++ {
		if m.ring[(old+p)%m.window] == gone {
			m.counts.add(int(gone), p, old%p, -1)
		}
	}
	m.ring[abs%m.window] = uint16(k)
	return nil
}

// Len returns the number of symbols currently in the window.
func (m *WindowMiner) Len() int { return len(m.ring) }

// start returns the absolute stream index of the oldest retained symbol.
func (m *WindowMiner) start() int { return m.counts.Length - len(m.ring) }

// windowPairs counts the consecutive-pair slots at absolute phase l within
// the current window: positions i ≡ l (mod p) with start ≤ i and
// i+p ≤ start+Len−1.
func (m *WindowMiner) windowPairs(p, l int) int {
	lo := m.start()
	hi := m.counts.Length - 1 - p // last valid start position
	if hi < lo {
		return 0
	}
	// Smallest i ≥ lo with i ≡ l (mod p).
	first := lo + ((l-lo)%p+p)%p
	if first > hi {
		return 0
	}
	return (hi-first)/p + 1
}

// Periodicities returns the symbol periodicities of the current window that
// a full mine with opt reports, the period range clipped to the tracked
// bound. Position is the absolute stream phase.
func (m *WindowMiner) Periodicities(opt Options) ([]SymbolPeriodicity, error) {
	return scanTable(m.counts.Table, m.counts.MaxPeriod, m.Len(), m.windowPairs, opt)
}
