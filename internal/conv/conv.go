// Package conv implements the paper's mapping scheme (§3.2) and modified
// convolution (§3.1): symbols map to σ-bit binary codes of powers of two, the
// series becomes a binary vector T′ of length σn, and the convolution
// component for period p is the integer whose powers of two identify every
// lag-p symbol match together with its symbol and starting position.
//
// The component values are kept in binary (bit vectors / big.Int) rather than
// as decimal magnitudes: a value c′_p has up to σn bits, and the paper's own
// extraction step consumes exactly its set of powers of two. Three equivalent
// realizations are provided:
//
//   - the literal textbook pipeline (reverse, Σ 2^j x_j y_{i−j}, reverse) over
//     big.Int, used as the O(n²)-per-series fidelity reference;
//   - word-parallel bit operations, the production form: c′_p = T′ AND (T′ >> σp);
//   - per-symbol FFT autocorrelation, giving the aggregate lag-match counts
//     Σ_l F2(s_k, π_{p,l}) for all p in O(σ n log n).
package conv

import (
	"fmt"
	"math/big"
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

// Wp returns the set W_p of powers of two contained in c′_p, ascending.
func (m *Mapped) Wp(p int) []int {
	var out []int
	m.Component(p, nil).ForEach(func(w int) { out = append(out, w) })
	return out
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

// EncodePower is the inverse of DecodePower: the weight contributed by a
// lag-p match of symbol k starting at position i.
func EncodePower(k, i, sigma, n, p int) int {
	return sigma*(n-p-1-i) + k
}

// Wpk returns W_{p,k}: the powers of c′_p whose symbol is k.
func (m *Mapped) Wpk(p, k int) []int {
	var out []int
	for _, w := range m.Wp(p) {
		if w%m.Sigma == k {
			out = append(out, w)
		}
	}
	return out
}

// Wpkl returns W_{p,k,l}: the powers of c′_p with symbol k and phase l.
// Its cardinality equals F2(s_k, π_{p,l}(T)).
func (m *Mapped) Wpkl(p, k, l int) []int {
	var out []int
	for _, w := range m.Wp(p) {
		dk, _, dl := DecodePower(w, m.Sigma, m.N, p)
		if dk == k && dl == l {
			out = append(out, w)
		}
	}
	return out
}

// ComponentInt returns c′_p as the integer the paper reasons about
// (Σ 2^w over matches).
func (m *Mapped) ComponentInt(p int) *big.Int {
	return m.Component(p, nil).Int()
}

// ModifiedConvolution computes the paper's modified convolution of two 0/1
// sequences: z_i = Σ_{j=0}^{i} 2^j a_j b_{i−j}, for i = 0..len(a)−1.
// Quadratic; reference implementation for fidelity tests.
func ModifiedConvolution(a, b []uint8) []*big.Int {
	n := len(a)
	if len(b) != n {
		panic(fmt.Sprintf("conv: length mismatch %d vs %d", n, len(b)))
	}
	out := make([]*big.Int, n)
	for i := range out {
		z := new(big.Int)
		for j := 0; j <= i; j++ {
			if a[j] != 0 && b[i-j] != 0 {
				z.SetBit(z, j, 1)
			}
		}
		out[i] = z
	}
	return out
}

// BinaryChars returns Φ(T) as the left-to-right character sequence of the
// written binary vector (the form the paper feeds to the convolution), where
// character c of symbol block i is 1 iff k = σ−1−(c mod σ) equals t_i.
func BinaryChars(s *series.Series) []uint8 {
	n, sigma := s.Len(), s.Alphabet().Size()
	out := make([]uint8, sigma*n)
	for i := 0; i < n; i++ {
		k := s.At(i)
		out[sigma*i+(sigma-1-k)] = 1
	}
	return out
}

// PaperComponents runs the literal pipeline of the paper's algorithm sketch:
// form Φ(T), reverse one copy, take the modified convolution, reverse the
// output, and project to the symbol start positions. The returned slice holds
// c^T_p for p = 0..n−1. Quadratic; used to validate the bit-operation form.
func PaperComponents(s *series.Series) []*big.Int {
	u := BinaryChars(s)
	rev := make([]uint8, len(u))
	for i := range u {
		rev[i] = u[len(u)-1-i]
	}
	z := ModifiedConvolution(rev, u)
	// Reverse the output, then take every σ-th component starting at 0.
	sigma, n := s.Alphabet().Size(), s.Len()
	out := make([]*big.Int, n)
	for p := 0; p < n; p++ {
		out[p] = z[len(z)-1-sigma*p]
	}
	return out
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

// EmptyIndicators builds all-zero indicators for incremental (streaming)
// construction; call Observe for each symbol in order.
func EmptyIndicators(n, sigma int) *Indicators {
	ind := &Indicators{N: n, Sigma: sigma, vecs: make([]*bitvec.Vector, sigma)}
	for k := range ind.vecs {
		ind.vecs[k] = bitvec.New(n)
	}
	return ind
}

// Observe records that position i holds symbol k.
//
//opvet:noalloc
func (ind *Indicators) Observe(i, k int) { ind.vecs[k].Set(i) }

// Vector returns the indicator vector of symbol k.
func (ind *Indicators) Vector(k int) *bitvec.Vector { return ind.vecs[k] }

// MatchSet returns the lag-p match set of symbol k: bit i is set iff
// t_i = t_{i+p} = s_k. Equivalent to the symbol-k bits of c′_p. dst may be
// nil or reused storage.
//
//opvet:noalloc
func (ind *Indicators) MatchSet(k, p int, dst *bitvec.Vector) *bitvec.Vector {
	return ind.vecs[k].AndShiftRight(p, dst)
}

// F2Counts returns counts[l] = F2(s_k, π_{p,l}(T)) for l = 0..p−1, computed
// from the lag-p match set. scratch may be nil or reused storage for the
// match set.
func (ind *Indicators) F2Counts(k, p int, scratch *bitvec.Vector) []int {
	return ind.MatchSet(k, p, scratch).CountMod(p)
}

// LagMatchCounts returns, for every symbol k and every lag p in [0, n),
// r[k][p] = |{i : t_i = t_{i+p} = s_k}| = Σ_l F2(s_k, π_{p,l}(T)), computed
// in O(σ n log n) total with pair-packed FFTs: two symbols' indicators share
// one forward and one inverse transform. It is the serial form of
// LagMatchCountsBatched; the counts are identical at any worker count.
func LagMatchCounts(s *series.Series) [][]int64 {
	return LagMatchCountsBatched(s, 1)
}

// LagMatchCountsParallel is LagMatchCounts with the pair-packed FFTs spread
// over the given number of goroutines (0 means GOMAXPROCS).
func LagMatchCountsParallel(s *series.Series, workers int) [][]int64 {
	return LagMatchCountsBatched(s, workers)
}

// LagMatchCountsBatched is the batched autocorrelation driver behind the
// detection sweep: the σ indicator vectors are packed into ⌈σ/2⌉ pair
// transforms, scheduled across a pool of `workers` goroutines (0 means
// GOMAXPROCS) that share one cached fft.Plan. The indicators are real, so
// each pair runs through the plan's half-size real-input kernel with the two
// buffers interleaved stage by stage (one walk of the swap and twiddle
// tables per pair). Each worker reuses a pair of indicator buffers,
// and any workers left over after the pairs are assigned go to parallel
// butterflies inside the transforms, so both wide-alphabet and long-series
// workloads keep every core busy. The counts are exact integers and
// bit-identical for every worker count and kernel choice.
func LagMatchCountsBatched(s *series.Series, workers int) [][]int64 {
	out, _ := lagMatchCountsBatched(s, workers, nil)
	return out
}

// LagMatchCountsBatchedCancel is LagMatchCountsBatched with cooperative
// cancellation: cancel (e.g. ctx.Err) is polled before each pair transform
// is claimed, and a non-nil return aborts the batch with that error and nil
// counts. A transform already in flight runs to completion, so the
// cancellation latency is bounded by one pair FFT, not the whole batch —
// the difference matters for wide alphabets.
func LagMatchCountsBatchedCancel(s *series.Series, workers int, cancel func() error) ([][]int64, error) {
	return lagMatchCountsBatched(s, workers, cancel)
}

func lagMatchCountsBatched(s *series.Series, workers int, cancel func() error) ([][]int64, error) {
	sched := exec.New(exec.Config{Workers: workers, Cancel: cancel})
	return LagMatchCountsExec(s, sched, workers, nil)
}

// LagMatchCountsExec is the scheduler-driven form of the batched
// autocorrelation and the implementation behind every other LagMatchCounts
// variant: the pair transforms are sharded over sched's worker pool, which
// is also where cancellation is polled (before each pair is claimed, so the
// cancellation latency is bounded by one in-flight pair FFT). workers caps
// the total cores used (0 means all cores — the FFT precompute fans out
// fully even when the surrounding stage pipeline is serial); workers left over
// after the pairs are assigned go to parallel butterflies inside each
// transform. plans supplies the FFT plan cache (nil means the process-shared
// cache). The counts are exact integers and bit-identical for every worker
// count.
func LagMatchCountsExec(s *series.Series, sched *exec.Scheduler, workers int, plans *fft.PlanCache) ([][]int64, error) {
	n, sigma := s.Len(), s.Alphabet().Size()
	out := make([][]int64, sigma)
	if sigma == 0 {
		return out, nil
	}
	flat := make([]int64, sigma*n)
	for k := range out {
		out[k] = flat[k*n : (k+1)*n : (k+1)*n]
	}
	if n == 0 {
		return out, nil
	}
	if plans == nil {
		plans = fft.SharedPlans()
	}
	plan := plans.For(fft.NextPow2(2 * n))
	pairs := (sigma + 1) / 2
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	outer := workers
	if outer > pairs {
		outer = pairs
	}
	// Cores not consumed by pair-level parallelism parallelize the
	// butterflies of each transform instead.
	inner := workers / outer
	err := sched.Run(pairs, outer, func(w int) func(i int) error {
		x1 := make([]float64, n)
		x2 := make([]float64, n)
		return func(i int) error {
			k := 2 * i
			s.IndicatorInto(k, x1)
			if k+1 < sigma {
				s.IndicatorInto(k+1, x2)
				plan.AutocorrelateCountsPairInto(x1, x2, out[k], out[k+1], inner)
			} else {
				plan.AutocorrelateCountsInto(x1, out[k], inner)
			}
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// LagMatchCountsNaive is the direct O(σ n²) form of LagMatchCounts, used to
// validate the FFT form.
func LagMatchCountsNaive(s *series.Series) [][]int64 {
	n, sigma := s.Len(), s.Alphabet().Size()
	out := make([][]int64, sigma)
	for k := range out {
		out[k] = make([]int64, n)
	}
	for p := 0; p < n; p++ {
		for i := 0; i+p < n; i++ {
			if s.At(i) == s.At(i+p) {
				out[s.At(i)][p]++
			}
		}
	}
	return out
}
