package conv

import (
	"fmt"
	"math/big"

	"periodica/internal/bitvec"
	"periodica/internal/series"
)

// The paper's reference forms of the mapping scheme and the modified
// convolution (§3.1–3.2), kept here as the oracles the production bit and
// FFT forms are tested against.

// Wp returns the set W_p of powers of two contained in c′_p, ascending.
func (m *Mapped) Wp(p int) []int {
	var out []int
	m.Component(p, nil).ForEach(func(w int) { out = append(out, w) })
	return out
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

// MatchSet returns the lag-p match set of symbol k: bit i is set iff
// t_i = t_{i+p} = s_k. Equivalent to the symbol-k bits of c′_p. dst may be
// nil or reused storage.
func (ind *Indicators) MatchSet(k, p int, dst *bitvec.Vector) *bitvec.Vector {
	return ind.vecs[k].AndShiftRight(p, dst)
}

// F2Counts returns counts[l] = F2(s_k, π_{p,l}(T)) for l = 0..p−1, computed
// from the lag-p match set. scratch may be nil or reused storage for the
// match set.
func (ind *Indicators) F2Counts(k, p int, scratch *bitvec.Vector) []int {
	counts := make([]int, p)
	ind.MatchSet(k, p, scratch).ForEach(func(i int) { counts[i%p]++ })
	return counts
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
