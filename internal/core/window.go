package core

import "periodica/internal/series"

// WindowMiner maintains symbol periodicities over a sliding window of the
// most recent symbols — the monitoring flavor of the paper's data-stream
// motivation: old behaviour ages out instead of accumulating. Arriving
// symbols add their lag-p matches and symbols leaving the window retract
// theirs, so the maintained counts always equal the batch counts over the
// current window. Positions are reported in absolute stream phase (stream
// index mod p), which keeps a stable pattern at a stable label while the
// window slides.
type WindowMiner struct {
	sigma     int
	maxPeriod int
	window    int
	start     int // absolute index of the oldest retained symbol
	count     int // symbols currently in the window
	buf       []uint16
	f2        [][][]int32
}

// NewWindowMiner returns a miner over a window of the given size, tracking
// periods 1..maxPeriod. The window must be larger than maxPeriod, and σ at
// most series.MaxAlphabet, since symbols are held as uint16.
func NewWindowMiner(sigma, maxPeriod, window int) (*WindowMiner, error) {
	if sigma < 1 || sigma > series.MaxAlphabet {
		return nil, invalidf("core: sigma %d outside [1,%d]", sigma, series.MaxAlphabet)
	}
	if maxPeriod < 1 {
		return nil, invalidf("core: maxPeriod %d < 1", maxPeriod)
	}
	if window <= maxPeriod {
		return nil, invalidf("core: window %d must exceed maxPeriod %d", window, maxPeriod)
	}
	m := &WindowMiner{
		sigma:     sigma,
		maxPeriod: maxPeriod,
		window:    window,
		buf:       make([]uint16, window),
		f2:        make([][][]int32, sigma),
	}
	for k := range m.f2 {
		m.f2[k] = make([][]int32, maxPeriod+1)
	}
	return m, nil
}

func (m *WindowMiner) at(abs int) int { return int(m.buf[abs%m.window]) }

// Append ingests the next symbol, evicting the oldest when the window is
// full; O(maxPeriod).
func (m *WindowMiner) Append(k int) error {
	if k < 0 || k >= m.sigma {
		return invalidf("core: symbol index %d out of range [0,%d)", k, m.sigma)
	}
	if m.count == m.window {
		// Retract the matches whose start position is the evicted symbol.
		old := m.start
		ok := m.at(old)
		for p := 1; p <= m.maxPeriod && old+p < m.start+m.count; p++ {
			if m.at(old+p) == ok {
				m.adjust(ok, p, old%p, -1)
			}
		}
		m.start++
		m.count--
	}
	abs := m.start + m.count
	m.buf[abs%m.window] = uint16(k)
	m.count++
	// Add the matches the new symbol completes.
	for p := 1; p <= m.maxPeriod && abs-p >= m.start; p++ {
		if m.at(abs-p) == k {
			m.adjust(k, p, (abs-p)%p, +1)
		}
	}
	return nil
}

func (m *WindowMiner) adjust(k, p, l int, delta int32) {
	if m.f2[k][p] == nil {
		m.f2[k][p] = make([]int32, p)
	}
	m.f2[k][p][l] += delta
}

// Len returns the number of symbols currently in the window.
func (m *WindowMiner) Len() int { return m.count }

// Start returns the absolute stream index of the oldest retained symbol.
func (m *WindowMiner) Start() int { return m.start }

// windowPairs counts the consecutive-pair slots at absolute phase l within
// the current window: positions i ≡ l (mod p) with start ≤ i and
// i+p ≤ start+count−1.
func (m *WindowMiner) windowPairs(p, l int) int {
	lo := m.start
	hi := m.start + m.count - 1 - p // last valid start position
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
	return scanTable(m.f2, m.maxPeriod, m.count, m.windowPairs, opt)
}
