package core

import (
	"math"

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
	table        []int     // rows×p phase-count scratch; all zero between periods
	surv         []int32   // surviving-symbol scratch for the fused detect path
	live         []int32   // resolve scratch: symbols of the completed table rows
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
	d.resolve(p, d.surv, psi, emit)
}

// detectNaive scans the series once, tallying matches per (symbol, phase).
func (d *detector) detectNaive(p int, psi float64, emit func(SymbolPeriodicity)) {
	n := d.n()
	table := d.scratch(d.sigma() * p)
	for i := 0; i+p < n; i++ {
		if d.s.At(i) == d.s.At(i+p) {
			table[d.s.At(i)*p+i%p]++
		}
	}
	d.emitTable(p, newPeriodBar(n, p, d.minPairs, psi), table, nil, emit)
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
			r = int64(d.ind.Vector(k).CountLagMatches(p))
		}
		if Survives(r, minPairs, psi) {
			dst = append(dst, int32(k))
		}
	}
	return dst
}

// resolve computes the exact per-phase counts F2(s_k, π_{p,l}) of the
// surviving symbols surv (ascending), one table row each, with the lag-match
// phase kernel, and emits the qualifying periodicities in canonical order.
// The kernel is given the period's two minimum F2 values, so it abandons a
// symbol's row once no phase can reach its minimum F2: a phase of pair count
// P allows P − minF2 mismatches, and the row is refuted once its largest
// count falls short of what the pairs left could lift to the bar. An
// abandoned row is cleared and its slot reused, so the table holds only
// completed rows and emitTable reads only those. The cost is the survivors'
// words and matches up to each row's cutoff plus one pass over the completed
// rows.
func (d *detector) resolve(p int, surv []int32, psi float64, emit func(SymbolPeriodicity)) {
	d.live = d.live[:0]
	if len(surv) == 0 {
		return
	}
	bar := newPeriodBar(d.n(), p, d.minPairs, psi)
	table := d.scratch(len(surv) * p)
	for _, k := range surv {
		row := table[len(d.live)*p : (len(d.live)+1)*p]
		if d.ind.Vector(int(k)).AddLagPhases(p, row, bar.minF2) {
			d.live = append(d.live, k)
		} else {
			clear(row)
		}
	}
	d.emitTable(p, bar, table[:len(d.live)*p], d.live, emit)
}

// scratch returns the first cells of the phase-count table, which are zero:
// emitTable zeroes every cell it reads, resolve clears every row it
// abandons, and the table grows geometrically, so a worker allocates it
// O(log) times per mine rather than per period.
func (d *detector) scratch(cells int) []int {
	if cap(d.table) < cells {
		d.table = make([]int, max(cells, 2*cap(d.table)))
	}
	return d.table[:cells]
}

// emitTable emits the qualifying cells of a rows×p phase-count table (row r,
// phase l at r·p+l) in canonical order — by position, then by ascending
// symbol — and zeroes every cell. syms[r] is row r's symbol, ascending; nil
// means row r holds symbol r. Acceptance is one integer compare per cell
// against the period's bar.
func (d *detector) emitTable(p int, bar periodBar, table []int, syms []int32, emit func(SymbolPeriodicity)) {
	rows := len(table) / p
	minF2, pairs := bar.minF2[0], bar.pairs[0]
	for l := 0; l < p; l++ {
		if l == bar.split {
			minF2, pairs = bar.minF2[1], bar.pairs[1]
		}
		for r, c := 0, l; r < rows; r, c = r+1, c+p {
			if f2 := table[c]; f2 >= minF2 {
				k := r
				if syms != nil {
					k = int(syms[r])
				}
				emit(periodicity(k, p, l, f2, pairs))
			}
			table[c] = 0
		}
	}
}

// periodBar is one period's Definition-1 test in integer form. Writing
// n = q·p + r, phases l < r (= split) have pairsAt = q consecutive slot pairs
// and the rest q − 1, so two thresholds cover every phase: a count F2 at a
// phase qualifies iff F2 ≥ minF2 of its pair count.
type periodBar struct {
	split int
	pairs [2]int
	minF2 [2]int
}

// newPeriodBar builds the bar of period p. A pair count below minPairs
// (≥ 1) gets a minimum no count reaches.
func newPeriodBar(n, p, minPairs int, psi float64) periodBar {
	q := n / p
	b := periodBar{split: n % p, pairs: [2]int{q, q - 1}}
	for j, pairs := range b.pairs {
		b.minF2[j] = math.MaxInt
		if pairs >= minPairs {
			b.minF2[j] = minQualifyingF2(pairs, psi)
		}
	}
	return b
}

// minQualifyingF2 returns the smallest F2 ≥ 1 that qualifies(F2, pairs, psi)
// accepts, or pairs+1 when none does. It searches qualifies itself — which
// is monotone in F2, as IEEE division rounds monotonically — starting from
// ⌈ψ·pairs⌉, so a ψ that lands exactly on an observed confidence gets the
// answer qualifies gives.
func minQualifyingF2(pairs int, psi float64) int {
	f := min(max(int(math.Ceil(psi*float64(pairs))), 1), pairs+1)
	for f > 1 && qualifies(f-1, pairs, psi) {
		f--
	}
	for f <= pairs && !qualifies(f, pairs, psi) {
		f++
	}
	return f
}

// occurrenceSet returns the bit set over occurrence indices m ∈ [0, ⌊n/p⌋)
// with bit m set iff t_{mp+l} = t_{(m+1)p+l} = s_k, i.e. the occurrences at
// which the single-symbol pattern (s_k at position l, period p) holds. It
// tests the indicator bits m·p+l and (m+1)·p+l directly, so it costs O(n/p).
func (d *detector) occurrenceSet(k, p, l int) *bitvec.Vector {
	if d.ind == nil {
		d.ind = conv.NewIndicators(d.s)
	}
	n, v := d.n(), d.ind.Vector(k)
	total := n / p
	occ := bitvec.New(total)
	for m, i := 0, l; m < total && i+p < n; m, i = m+1, i+p {
		if v.Get(i) && v.Get(i+p) {
			occ.Set(m)
		}
	}
	return occ
}
