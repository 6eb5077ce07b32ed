// Package trends implements the periodic-trends baseline of Indyk, Koudas and
// Muthukrishnan (VLDB 2000) as the paper's §4 uses it: for every candidate
// period p it computes (or sketches) the distance D(p) between the series and
// its p-shift over their overlap, ranks periods ascending by distance, and
// reports the normalized rank of a period as its confidence. The exact form
// evaluates all distances with per-symbol FFT autocorrelations; the sketched
// form uses O(log n) random ±1 projections for an overall O(n log² n) cost,
// the baseline's published complexity.
package trends

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"periodica/internal/conv"
	"periodica/internal/fft"
	"periodica/internal/series"
	"periodica/internal/sketch"
)

// Ranking holds the distance of every candidate period and the induced
// candidacy order.
type Ranking struct {
	N int
	// Distances[p] is D(p) (or its estimate) for p in [MinPeriod, MaxPeriod];
	// entries outside that range are NaN.
	Distances []float64
	MinPeriod int
	MaxPeriod int
	// ranks[p] is the 1-based candidacy rank of period p (1 = most
	// candidate, i.e. smallest distance; ties broken by smaller period).
	ranks []int
}

// Confidence returns the normalized rank of period p: the most candidate
// period has confidence 1 and the least candidate 0 (or 1 if there is a
// single candidate). This is the confidence §4.1 of the paper plots for the
// trends algorithm.
func (r *Ranking) Confidence(p int) float64 {
	if p < r.MinPeriod || p > r.MaxPeriod {
		return 0
	}
	total := r.MaxPeriod - r.MinPeriod + 1
	if total == 1 {
		return 1
	}
	return float64(total-r.ranks[p]) / float64(total-1)
}

// Rank returns the 1-based candidacy rank of p.
func (r *Ranking) Rank(p int) int {
	if p < r.MinPeriod || p > r.MaxPeriod {
		return 0
	}
	return r.ranks[p]
}

// Candidates returns the periods in candidacy order (most candidate first),
// the baseline's published output: a set of candidate period values.
func (r *Ranking) Candidates() []int {
	out := make([]int, 0, r.MaxPeriod-r.MinPeriod+1)
	for p := r.MinPeriod; p <= r.MaxPeriod; p++ {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return r.ranks[out[i]] < r.ranks[out[j]] })
	return out
}

func newRanking(n, minP, maxP int, distances []float64) *Ranking {
	r := &Ranking{N: n, Distances: distances, MinPeriod: minP, MaxPeriod: maxP}
	order := make([]int, 0, maxP-minP+1)
	for p := minP; p <= maxP; p++ {
		order = append(order, p)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := distances[order[i]], distances[order[j]]
		if di != dj { //opvet:ignore floatcmp exact tie-break in sort comparator
			return di < dj
		}
		return order[i] < order[j]
	})
	r.ranks = make([]int, maxP+1)
	for rank, p := range order {
		r.ranks[p] = rank + 1
	}
	return r
}

func periodBounds(n, maxPeriod int) (int, int, error) {
	if maxPeriod == 0 {
		maxPeriod = n / 2
	}
	if n < 2 || maxPeriod < 1 || maxPeriod >= n {
		return 0, 0, fmt.Errorf("trends: invalid n=%d maxPeriod=%d", n, maxPeriod)
	}
	return 1, maxPeriod, nil
}

// Exact ranks periods by the exact Hamming distance
// D(p) = |{i < n−p : t_i ≠ t_{i+p}}| = (n−p) − Σ_k r_k(p),
// computed with one FFT autocorrelation per symbol. maxPeriod 0 means n/2.
func Exact(s *series.Series, maxPeriod int) (*Ranking, error) {
	minP, maxP, err := periodBounds(s.Len(), maxPeriod)
	if err != nil {
		return nil, err
	}
	lag := conv.LagMatchCounts(s)
	distances := nanSlice(maxP + 1)
	for p := minP; p <= maxP; p++ {
		var matches int64
		for k := range lag {
			matches += lag[k][p]
		}
		distances[p] = float64(int64(s.Len()-p) - matches)
	}
	return newRanking(s.Len(), minP, maxP, distances), nil
}

// Sketched ranks periods by an unbiased sketch estimate of D(p): with R
// random ±1 symbol hashes h_r, E[Σ_i h_r(t_i)h_r(t_{i+p})] = matches(p), so
// D̂(p) = (n−p) − avg_r corr_r(p). repetitions 0 means ⌈log2 n⌉, giving the
// baseline's O(n log² n) total cost. maxPeriod 0 means n/2.
func Sketched(s *series.Series, maxPeriod, repetitions int, seed int64) (*Ranking, error) {
	minP, maxP, err := periodBounds(s.Len(), maxPeriod)
	if err != nil {
		return nil, err
	}
	if repetitions == 0 {
		repetitions = bits.Len(uint(s.Len()))
	}
	if repetitions < 1 {
		return nil, fmt.Errorf("trends: repetitions %d < 1", repetitions)
	}
	n := s.Len()
	sums := make([]int64, maxP+1)
	for rep := 0; rep < repetitions; rep++ {
		h := sketch.NewSign(s.Alphabet().Size(), seed+int64(rep))
		// A correlation of a ±1 vector is an integer; the rounded counts
		// keep exact ties (every multiple of P on inerrant data) exact.
		corr := fft.AutocorrelateCounts(h.Project(s))
		for p := minP; p <= maxP; p++ {
			sums[p] += corr[p]
		}
	}
	distances := nanSlice(maxP + 1)
	for p := minP; p <= maxP; p++ {
		distances[p] = float64(n-p) - float64(sums[p])/float64(repetitions)
	}
	return newRanking(n, minP, maxP, distances), nil
}

func nanSlice(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.NaN()
	}
	return out
}
