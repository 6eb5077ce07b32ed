package core

import (
	"sort"

	"periodica/internal/bitvec"
	"periodica/internal/conv"
	"periodica/internal/series"
)

// detector evaluates, for one period p at a time, the per-symbol per-position
// counts F2(s_k, π_{p,l}(T)) and emits the symbol periodicities that reach
// the threshold. A detector is pure computation over shared read-only inputs
// (series, indicators, lag counts) plus private scratch; cancellation and
// sharding belong to the exec scheduler that drives it, so pipeline stages
// build one detector per worker.
type detector struct {
	s        *series.Series
	eng      Engine
	minPairs int // minimum Definition-1 denominator to qualify (≥ 1)
	// symLo and symHi restrict the sweep to symbols [symLo, symHi) — the
	// distributed shard seam; symHi 0 means the whole alphabet.
	symLo, symHi int
	ind          *conv.Indicators
	lag          [][]int64 // FFT lag-match counts, lag[k][p]
	match        *bitvec.Vector
	counts       []int   // phase-count scratch; only touched entries are non-zero
	touched      []int   // phases with non-zero counts, for output-sensitive reset
	surv         []int32 // surviving-symbol scratch for the fused detect path
}

func newDetector(s *series.Series, eng Engine) *detector {
	d := &detector{s: s, eng: eng, minPairs: 1}
	switch eng {
	case EngineBitset:
		d.ind = conv.NewIndicators(s)
	case EngineFFT:
		d.ind = conv.NewIndicators(s)
		// The batched planned engine returns the same exact counts as the
		// serial sweep, so the detector's results are unchanged.
		d.lag = conv.LagMatchCountsBatched(s, 0)
	}
	return d
}

// newDetectorFromIndicators builds a detector directly from streaming-built
// indicators (no symbol-index copy of the series required).
func newDetectorFromIndicators(ind *conv.Indicators, lag [][]int64) *detector {
	eng := EngineBitset
	if lag != nil {
		eng = EngineFFT
	}
	return &detector{eng: eng, minPairs: 1, ind: ind, lag: lag}
}

func (d *detector) n() int {
	if d.s != nil {
		return d.s.Len()
	}
	return d.ind.N
}

func (d *detector) sigma() int {
	if d.s != nil {
		return d.s.Alphabet().Size()
	}
	return d.ind.Sigma
}

// detect finds all symbol periodicities at period p with confidence ≥ psi.
// It fuses the sweep and resolve stages of the pipeline for callers that
// query one period at a time (Confidencer, BestConfidences, significance).
func (d *detector) detect(p int, psi float64, emit func(SymbolPeriodicity)) {
	n := d.n()
	if p < 1 || p >= n {
		return
	}
	if pairsAt(n, p, 0) < d.minPairs {
		return // no position can reach the required projection mass
	}
	if d.eng == EngineNaive {
		d.detectNaive(p, psi, emit)
		return
	}
	d.surv = d.survivors(p, psi, d.surv[:0])
	for _, k := range d.surv {
		d.resolveSymbol(int(k), p, psi, emit)
	}
}

// detectNaive scans the series once, tallying matches per (symbol, phase).
func (d *detector) detectNaive(p int, psi float64, emit func(SymbolPeriodicity)) {
	n, sigma := d.n(), d.sigma()
	need := sigma * p
	if cap(d.counts) < need {
		d.counts = make([]int, need)
	}
	counts := d.counts[:need]
	for i := range counts {
		counts[i] = 0
	}
	for i := 0; i+p < n; i++ {
		if d.s.At(i) == d.s.At(i+p) {
			counts[d.s.At(i)*p+i%p]++
		}
	}
	for k := 0; k < sigma; k++ {
		for l := 0; l < p; l++ {
			d.emitIf(k, p, l, counts[k*p+l], psi, emit)
		}
	}
}

// survivors appends to dst the symbols whose aggregate lag-p match count
// could still reach the threshold at some position. The prune is sound:
// F2(s_k, π_{p,l}) ≤ r_k(p) for every l, and the denominator is smallest at
// the largest phase, so max_l conf(k,p,l) ≤ r_k(p)/minPairs. r_k(p) comes
// from the FFT autocorrelation when available and a bitset popcount
// otherwise.
func (d *detector) survivors(p int, psi float64, dst []int32) []int32 {
	n, sigma := d.n(), d.sigma()
	lo, hi := d.symLo, d.symHi
	if hi <= 0 || hi > sigma {
		hi = sigma
	}
	minPairs := pairsAt(n, p, p-1)
	if minPairs < d.minPairs {
		minPairs = d.minPairs
	}
	for k := lo; k < hi; k++ {
		var r int64
		switch d.eng {
		case EngineFFT:
			r = d.lag[k][p]
		default:
			d.match = d.ind.MatchSet(k, p, d.match)
			r = int64(d.match.Count())
		}
		// Divide as emitIf does: f2 ≤ r and pairs ≥ minPairs, and IEEE
		// division rounds monotonically, so every pair emitIf accepts
		// survives. The product psi·minPairs can round above r and drop one.
		if float64(r)/float64(minPairs) >= psi {
			dst = append(dst, int32(k))
		}
	}
	return dst
}

// resolveSymbol computes the exact per-phase counts F2(s_k, π_{p,l}) for one
// surviving symbol and emits the qualifying periodicities in phase order.
func (d *detector) resolveSymbol(k, p int, psi float64, emit func(SymbolPeriodicity)) {
	d.match = d.ind.MatchSet(k, p, d.match)
	if cap(d.counts) < p {
		d.counts = make([]int, p)
	}
	counts := d.counts[:p]
	d.touched = d.touched[:0]
	d.match.ForEach(func(i int) {
		l := i % p
		if counts[l] == 0 {
			d.touched = append(d.touched, l)
		}
		counts[l]++
	})
	// Only touched phases can qualify (F2 > 0); emit in phase order.
	sort.Ints(d.touched)
	for _, l := range d.touched {
		d.emitIf(k, p, l, counts[l], psi, emit)
		counts[l] = 0
	}
}

func (d *detector) emitIf(k, p, l, f2 int, psi float64, emit func(SymbolPeriodicity)) {
	pairs := pairsAt(d.n(), p, l)
	if pairs < d.minPairs || f2 == 0 {
		return
	}
	conf := float64(f2) / float64(pairs)
	if conf >= psi {
		emit(SymbolPeriodicity{Symbol: k, Period: p, Position: l, F2: f2, Pairs: pairs, Confidence: conf})
	}
}

// occurrenceSet returns the bit set over occurrence indices m ∈ [0, ⌊n/p⌋)
// with bit m set iff t_{mp+l} = t_{(m+1)p+l} = s_k, i.e. the occurrences at
// which the single-symbol pattern (s_k at position l, period p) holds.
func (d *detector) occurrenceSet(k, p, l int) *bitvec.Vector {
	if d.ind == nil {
		d.ind = conv.NewIndicators(d.s)
	}
	n := d.n()
	occ := bitvec.New(n / p)
	d.match = d.ind.MatchSet(k, p, d.match)
	d.match.ForEach(func(i int) {
		if i%p == l {
			occ.Set(i / p)
		}
	})
	return occ
}
