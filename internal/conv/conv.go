// Package conv implements the paper's mapping scheme (§3.2) and modified
// convolution (§3.1): symbols map to σ-bit binary codes of powers of two, the
// series becomes a binary vector T′ of length σn, and the convolution
// component for period p is the integer whose powers of two identify every
// lag-p symbol match together with its symbol and starting position.
//
// The component values are kept in binary (bit vectors) rather than as
// decimal magnitudes: a value c′_p has up to σn bits, and the paper's own
// extraction step consumes exactly its set of powers of two. Two equivalent
// realizations are provided:
//
//   - word-parallel bit operations: c′_p = T′ AND (T′ >> σp);
//   - per-symbol FFT autocorrelation, giving the aggregate lag-match counts
//     Σ_l F2(s_k, π_{p,l}) for every p ≤ L in O(σ n log L).
//
// The literal textbook pipeline (reverse, Σ 2^j x_j y_{i−j}, reverse) over
// big.Int is the O(n²)-per-series fidelity reference; it lives with the
// package's tests.
package conv

import (
	"fmt"
	"runtime"

	"periodica/internal/bitvec"
	"periodica/internal/exec"
	"periodica/internal/fft"
	"periodica/internal/series"
)

// Mapped is a series together with its binary vector T′ under the mapping Φ.
// Bit w of T′ is set iff w = σ(n−1−i)+k and t_i = s_k; this numbering makes
// the paper's power-decoding formulas hold verbatim.
type Mapped struct {
	Series *series.Series
	TPrime *bitvec.Vector
	Sigma  int
	N      int
}

// Map builds T′ for s.
func Map(s *series.Series) *Mapped {
	n, sigma := s.Len(), s.Alphabet().Size()
	t := bitvec.New(sigma * n)
	for i := 0; i < n; i++ {
		k := s.At(i)
		t.Set(sigma*(n-1-i) + k)
	}
	return &Mapped{Series: s, TPrime: t, Sigma: sigma, N: n}
}

// Component returns c′_p as a bit vector of length σn: bit w is set iff the
// series has a lag-p match of symbol k = w mod σ starting at position
// i = n−p−1−⌊w/σ⌋. Equal to T′ AND (T′ >> σp). dst may be nil or a previous
// result to reuse its storage.
//
//opvet:noalloc
func (m *Mapped) Component(p int, dst *bitvec.Vector) *bitvec.Vector {
	if p < 0 || p >= m.N {
		panic(fmt.Sprintf("conv: period %d out of range [0,%d)", p, m.N))
	}
	return m.TPrime.AndShiftRight(m.Sigma*p, dst)
}

// DecodePower inverts the weight encoding for a power w found in c′_p:
// it returns the symbol index k = w mod σ, the match start position
// i = n−p−1−⌊w/σ⌋, and the phase l = i mod p (the paper's position formula).
func DecodePower(w, sigma, n, p int) (k, i, l int) {
	k = w % sigma
	i = n - p - 1 - w/sigma
	l = i % p
	return k, i, l
}

// Indicators holds per-symbol 0/1 indicator bit vectors of a series, the
// word-parallel working form of T′ split by symbol.
type Indicators struct {
	N     int
	Sigma int
	vecs  []*bitvec.Vector
}

// NewIndicators builds the per-symbol indicators of s.
func NewIndicators(s *series.Series) *Indicators {
	n, sigma := s.Len(), s.Alphabet().Size()
	ind := &Indicators{N: n, Sigma: sigma, vecs: make([]*bitvec.Vector, sigma)}
	for k := range ind.vecs {
		ind.vecs[k] = bitvec.New(n)
	}
	for i := 0; i < n; i++ {
		ind.vecs[s.At(i)].Set(i)
	}
	return ind
}

// Vector returns the indicator vector of symbol k.
func (ind *Indicators) Vector(k int) *bitvec.Vector { return ind.vecs[k] }

// LagMatchCounts returns, for every symbol k and every lag p in [0, n),
// r[k][p] = |{i : t_i = t_{i+p} = s_k}| = Σ_l F2(s_k, π_{p,l}(T)), computed
// in O(σ n log n) total with one planned FFT autocorrelation per symbol. It
// is the serial form of LagMatchCountsExec, for experiments and baselines;
// the counts are identical at any worker count.
func LagMatchCounts(s *series.Series) [][]int64 {
	out, _ := LagMatchCountsExec(s, exec.New(exec.Config{Workers: 1}), 1, nil)
	return out
}

// LagMatchCountsExec is LagMatchCountsBand over every lag 0..n−1.
func LagMatchCountsExec(s *series.Series, sched *exec.Scheduler, workers int, plans *fft.PlanCache) ([][]int64, error) {
	return LagMatchCountsBand(s, s.Len()-1, sched, workers, plans)
}

// LagMatchCountsBand is the autocorrelation driver behind the detection
// sweep: r[k][p] for every symbol k and every lag p in [0, maxLag] (capped
// at n−1), in O(σ n log maxLag). Each symbol's indicator runs through the
// fft block kernel on one cached plan of size fft.BandSize(n, maxLag): blocks
// of B ≥ maxLag samples, one forward transform each plus one inverse. The
// symbols are sharded over sched's worker pool, which polls cancellation
// before each symbol is claimed, so a cancelled detection stops within one
// symbol's transforms. Each worker reuses one indicator buffer. workers caps
// the total cores used (0 means all cores — the FFT precompute fans out
// fully even when the surrounding stage pipeline is serial); workers left
// over after the symbols are assigned go to parallel butterflies inside each
// transform. plans supplies the FFT plan cache (nil means the process-shared
// cache). The counts are exact integers and bit-identical for every worker
// count.
func LagMatchCountsBand(s *series.Series, maxLag int, sched *exec.Scheduler, workers int, plans *fft.PlanCache) ([][]int64, error) {
	n, sigma := s.Len(), s.Alphabet().Size()
	out := make([][]int64, sigma)
	if sigma == 0 {
		return out, nil
	}
	lags := max(min(maxLag+1, n), 0)
	flat := make([]int64, sigma*lags)
	for k := range out {
		out[k] = flat[k*lags : (k+1)*lags : (k+1)*lags]
	}
	if lags == 0 {
		return out, nil
	}
	if plans == nil {
		plans = fft.SharedPlans()
	}
	plan := plans.For(fft.BandSize(n, lags-1))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	outer := min(workers, sigma)
	// Cores not consumed by symbol-level parallelism parallelize the
	// butterflies of each transform instead.
	inner := workers / outer
	err := sched.Run(sigma, outer, func(w int) func(k int) error {
		x := make([]float64, n)
		return func(k int) error {
			plan.AutocorrelateCountsInto(s.IndicatorInto(k, x), out[k], inner)
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
