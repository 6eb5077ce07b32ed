// Package bitvec provides dense bit vectors with the shift, AND and counting
// operations that back the exact form of the paper's modified convolution:
// the set of lag-p matches of a 0/1 indicator vector is exactly
// B AND (B >> p), and per-phase match counts are strided popcounts.
package bitvec

import (
	"fmt"
	"math/big"
	"math/bits"
)

const wordBits = 64

// Vector is a fixed-length bit vector. Bit i corresponds to position i of a
// time series. The zero value is an empty vector of length 0.
type Vector struct {
	n     int
	words []uint64
}

// New returns an all-zero vector of length n.
func New(n int) *Vector {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", n))
	}
	return &Vector{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Len returns the vector length in bits.
func (v *Vector) Len() int { return v.n }

// Set sets bit i to 1.
func (v *Vector) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear sets bit i to 0.
func (v *Vector) Clear(i int) {
	v.check(i)
	v.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Get reports whether bit i is set.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Append extends the vector by one bit at the high end.
func (v *Vector) Append(bit bool) {
	if v.n%wordBits == 0 {
		v.words = append(v.words, 0)
	}
	if bit {
		v.words[v.n/wordBits] |= 1 << uint(v.n%wordBits)
	}
	v.n++
}

// Clone returns a copy of v.
func (v *Vector) Clone() *Vector {
	w := &Vector{n: v.n, words: make([]uint64, len(v.words))}
	copy(w.words, v.words)
	return w
}

// Count returns the number of set bits.
func (v *Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// AndShiftRight computes dst = v AND (v >> p) into dst, resizing dst as
// needed, and returns dst. Bit i of the result is set iff bits i and i+p of v
// are both set; the result therefore has logical length v.Len()-p (higher bits
// are zero). dst may be nil.
//
// This is the word-parallel form of the paper's modified convolution value:
// for a symbol-indicator vector, the result is the set of lag-p match
// positions.
func (v *Vector) AndShiftRight(p int, dst *Vector) *Vector {
	if p < 0 {
		panic(fmt.Sprintf("bitvec: negative shift %d", p))
	}
	if dst == nil || dst.n != v.n {
		dst = New(v.n)
	}
	wordShift, bitShift := p/wordBits, uint(p%wordBits)
	nw := len(v.words)
	if bitShift == 0 {
		for i := 0; i < nw; i++ {
			var s uint64
			if i+wordShift < nw {
				s = v.words[i+wordShift]
			}
			dst.words[i] = v.words[i] & s
		}
	} else {
		for i := 0; i < nw; i++ {
			var lo, hi uint64
			if i+wordShift < nw {
				lo = v.words[i+wordShift] >> bitShift
			}
			if i+wordShift+1 < nw {
				hi = v.words[i+wordShift+1] << (wordBits - bitShift)
			}
			dst.words[i] = v.words[i] & (lo | hi)
		}
	}
	return dst
}

// ForEach calls fn for every set bit, in increasing order of index.
func (v *Vector) ForEach(fn func(i int)) {
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// ForEachPhase calls fn(i mod p) for every set bit i, in increasing order of
// i. It walks the bits one period block at a time, advancing the block base
// by p, so it divides nothing per bit: a walk costs O(n/64 + n/p + set bits).
func (v *Vector) ForEachPhase(p int, fn func(l int)) {
	if p <= 0 {
		panic(fmt.Sprintf("bitvec: non-positive modulus %d", p))
	}
	base := 0
	for wi, w := range v.words {
		for w != 0 {
			i := wi*wordBits + bits.TrailingZeros64(w)
			w &= w - 1
			for i-base >= p {
				base += p
			}
			fn(i - base)
		}
	}
}

// CountMod returns counts[l] = number of set bits at indices i with
// i mod p == l, for l in [0,p). This yields the per-phase match counts
// F2(s, π_{p,l}(T)) from a lag-p match vector.
func (v *Vector) CountMod(p int) []int {
	if p <= 0 {
		panic(fmt.Sprintf("bitvec: non-positive modulus %d", p))
	}
	counts := make([]int, p)
	v.ForEachPhase(p, func(l int) { counts[l]++ })
	return counts
}

// And computes dst = v AND w; the vectors must have equal length. dst may be
// nil or either operand.
func (v *Vector) And(w, dst *Vector) *Vector {
	if v.n != w.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, w.n))
	}
	if dst == nil || dst.n != v.n {
		dst = New(v.n)
	}
	for i := range v.words {
		dst.words[i] = v.words[i] & w.words[i]
	}
	return dst
}

// Or computes dst = v OR w; the vectors must have equal length.
func (v *Vector) Or(w, dst *Vector) *Vector {
	if v.n != w.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, w.n))
	}
	if dst == nil || dst.n != v.n {
		dst = New(v.n)
	}
	for i := range v.words {
		dst.words[i] = v.words[i] | w.words[i]
	}
	return dst
}

// Equal reports whether v and w have the same length and bits.
func (v *Vector) Equal(w *Vector) bool {
	if v.n != w.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != w.words[i] {
			return false
		}
	}
	return true
}

// Int returns the vector as a big.Int whose bit i equals bit i of v. This is
// the "value" form of the paper's convolution components: the number whose
// powers of two are exactly the set bits.
func (v *Vector) Int() *big.Int {
	z := new(big.Int)
	for i, w := range v.words {
		if w == 0 {
			continue
		}
		t := new(big.Int).Lsh(new(big.Int).SetUint64(w), uint(i*wordBits))
		z.Or(z, t)
	}
	return z
}

// FromInt sets the bits of a new length-n vector from the low n bits of z.
func FromInt(z *big.Int, n int) *Vector {
	v := New(n)
	for i := 0; i < n; i++ {
		if z.Bit(i) == 1 {
			v.Set(i)
		}
	}
	return v
}

// String renders the vector most-significant-bit first, matching how the
// paper writes binary vectors (leftmost bit = highest position).
func (v *Vector) String() string {
	buf := make([]byte, v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(v.n - 1 - i) {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
	}
	return string(buf)
}
