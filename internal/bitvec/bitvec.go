// Package bitvec provides dense bit vectors with the shift, AND and counting
// operations that back the exact form of the paper's modified convolution:
// the set of lag-p matches of a 0/1 indicator vector is exactly
// B AND (B >> p), and its per-phase match counts are the set bits of that
// AND tallied by index mod p.
package bitvec

import (
	"fmt"
	"math"
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
	ws, bs := p/wordBits, uint(p%wordBits)
	for i := range dst.words {
		var m uint64
		if i+ws < len(v.words) {
			m = v.words[i] & shifted(v.words, i+ws, bs)
		}
		dst.words[i] = m
	}
	return dst
}

// shifted returns the 64 bits of words starting at bit 64·j + bs, reading
// bits past the end as zero: word j − ws of the vector shifted right by
// 64·ws + bs.
func shifted(words []uint64, j int, bs uint) uint64 {
	s := words[j] >> bs
	if bs != 0 && j+1 < len(words) {
		s |= words[j+1] << (wordBits - bs)
	}
	return s
}

// CountLagMatches returns the number of set bits of v AND (v >> p): the
// lag-p match count of a symbol-indicator vector. Each match word is formed
// and counted on the fly, so nothing is stored.
//
//opvet:noalloc
func (v *Vector) CountLagMatches(p int) int {
	if p < 0 {
		panic(fmt.Sprintf("bitvec: negative shift %d", p))
	}
	ws, bs := p/wordBits, uint(p%wordBits)
	c := 0
	for i := 0; i+ws < len(v.words); i++ {
		c += bits.OnesCount64(v.words[i] & shifted(v.words, i+ws, bs))
	}
	return c
}

// AddLagPhases adds one to counts[i mod p] for every set bit i of
// v AND (v >> p), that is for every i with bits i and i+p both set. For a
// symbol-indicator vector this adds the per-phase lag-p match counts
// F2(s, π_{p,l}) to counts[l]. Each match word is formed on the fly and its
// bits are walked one period block at a time: the phase of a word's bit 0
// advances by 64 mod p per word, and within a block a bit's phase is its
// offset plus a constant. The phases are therefore exact for every length,
// and the cost is O((n−p)/64 + n/p + matches), with no division, no stored
// match vector and no call per bit. counts must hold at least p entries.
//
// need lets the kernel abandon a row no phase can complete. Writing
// n = q·p + split, the phases l < split have q lag-p pairs and complete when
// their count reaches need[0]; the rest have q − 1 pairs and need need[1].
// When p divides n, group 0 holds no phase and need[0] is ignored. After
// each word the matches below bit B = 64·(words done) are counted, which
// covers the first R = ⌊B/p⌋ pairs of every phase, so a phase of group g has
// at most max(pairs_g − R, 0) pairs left. Once the largest count c this call
// has written satisfies c < need[g] − max(pairs_g − R, 0) for both groups,
// no phase can complete and the kernel returns false with the row part
// counted; otherwise it returns true with the row complete. A group that
// cannot complete may be given any need above its pair count, math.MaxInt
// included, and need {0, 0} never fires. The need speaks of the matches
// this call counts, so a caller that may be cut off passes a zeroed row.
//
//opvet:noalloc
func (v *Vector) AddLagPhases(p int, counts []int, need [2]int) bool {
	if p <= 0 || len(counts) < p {
		panic(fmt.Sprintf("bitvec: modulus %d with %d counts", p, len(counts)))
	}
	counts = counts[:p]
	q := v.n / p
	if v.n%p == 0 {
		need[0] = math.MaxInt // group 0 holds no phase
	}
	ws, bs := p/wordBits, uint(p%wordBits)
	step, rstep := wordBits%p, wordBits/p // phase and pair advance per word
	off, r := 0, 0                        // phase of the current word's bit 0; pairs of every phase counted
	mx := 0                               // largest count this call has reached
	for wi := 0; wi+ws < len(v.words); wi++ {
		m := v.words[wi] & shifted(v.words, wi+ws, bs)
		// Bits below cut lie in the period block holding bit 0; bit b of
		// that block has phase b+lo. Each block after it moves both by p.
		lo, cut := off, p-off
		for m != 0 {
			seg := m
			if cut < wordBits {
				seg &= 1<<uint(cut) - 1
			}
			m ^= seg
			for ; seg != 0; seg &= seg - 1 {
				x := lo + bits.TrailingZeros64(seg)
				c := counts[x] + 1
				counts[x] = c
				mx = max(mx, c)
			}
			lo, cut = lo-p, cut+p
		}
		r += rstep
		if off += step; off >= p {
			off -= p
			r++
		}
		if mx < min(need[0]-max(q-r, 0), need[1]-max(q-1-r, 0)) {
			return false
		}
	}
	return true
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
