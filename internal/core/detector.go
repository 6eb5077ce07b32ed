package core

import (
	"math/bits"

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
	counts       []int    // phase-count scratch; only marked entries are non-zero
	mark         []uint64 // p-bit mark of the phases with non-zero counts
	surv         []int32  // surviving-symbol scratch for the fused detect path
}

// newDetector builds a bitset detector over s for callers that query one
// period at a time (Confidencer, BestConfidences, significance): its prune
// popcounts the lag-p match sets, so it needs no FFT precompute.
func newDetector(s *series.Series) *detector {
	return &detector{s: s, eng: EngineBitset, minPairs: 1, ind: conv.NewIndicators(s)}
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
		if Survives(r, minPairs, psi) {
			dst = append(dst, int32(k))
		}
	}
	return dst
}

// resolveSymbol computes the exact per-phase counts F2(s_k, π_{p,l}) for one
// surviving symbol and emits the qualifying periodicities in phase order.
// The match bits are walked by period block, and the touched phases are read
// back in order from a p-bit mark, so the cost is O(n/64 + n/p + matches)
// with no division per match and no sort.
func (d *detector) resolveSymbol(k, p int, psi float64, emit func(SymbolPeriodicity)) {
	d.match = d.ind.MatchSet(k, p, d.match)
	if cap(d.counts) < p {
		d.counts = make([]int, p)
	}
	counts := d.counts[:p]
	words := (p + 63) / 64
	if cap(d.mark) < words {
		d.mark = make([]uint64, words)
	}
	mark := d.mark[:words]
	d.match.ForEachPhase(p, func(l int) {
		counts[l]++
		mark[l>>6] |= 1 << uint(l&63)
	})
	// Only marked phases can qualify (F2 > 0).
	for wi, w := range mark {
		for w != 0 {
			l := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			d.emitIf(k, p, l, counts[l], psi, emit)
			counts[l] = 0
		}
		mark[wi] = 0
	}
}

func (d *detector) emitIf(k, p, l, f2 int, psi float64, emit func(SymbolPeriodicity)) {
	pairs := pairsAt(d.n(), p, l)
	if pairs < d.minPairs || f2 == 0 {
		return
	}
	if qualifies(f2, pairs, psi) {
		emit(periodicity(k, p, l, f2, pairs))
	}
}

// occurrenceSet returns the bit set over occurrence indices m ∈ [0, ⌊n/p⌋)
// with bit m set iff t_{mp+l} = t_{(m+1)p+l} = s_k, i.e. the occurrences at
// which the single-symbol pattern (s_k at position l, period p) holds. It
// probes match bit m·p+l for each m, so it costs O(n/p) after the match set.
func (d *detector) occurrenceSet(k, p, l int) *bitvec.Vector {
	if d.ind == nil {
		d.ind = conv.NewIndicators(d.s)
	}
	total := d.n() / p
	occ := bitvec.New(total)
	d.match = d.ind.MatchSet(k, p, d.match)
	for m, i := 0, l; m < total; m, i = m+1, i+p {
		if d.match.Get(i) {
			occ.Set(m)
		}
	}
	return occ
}
