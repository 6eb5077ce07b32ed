// Package series defines the discretized symbol time series the miner
// operates on, together with the projection π_{p,l} and consecutive-occurrence
// count F2 from the paper's problem definition (§2).
package series

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"periodica/internal/alphabet"
)

// Series is a time series T = t_0, t_1, …, t_{n−1} of symbols over an
// alphabet, stored as dense symbol indices.
type Series struct {
	alpha *alphabet.Alphabet
	data  []uint16
}

// MaxAlphabet is the largest alphabet size a Series supports.
const MaxAlphabet = 1 << 16

// New builds a series over alpha from symbol indices. The indices are copied.
func New(alpha *alphabet.Alphabet, indices []int) (*Series, error) {
	if alpha.Size() > MaxAlphabet {
		return nil, fmt.Errorf("series: alphabet size %d exceeds %d", alpha.Size(), MaxAlphabet)
	}
	s := &Series{alpha: alpha, data: make([]uint16, len(indices))}
	for i, k := range indices {
		if k < 0 || k >= alpha.Size() {
			return nil, fmt.Errorf("series: symbol index %d at position %d out of range [0,%d)", k, i, alpha.Size())
		}
		s.data[i] = uint16(k)
	}
	return s, nil
}

// FromString parses a series of single-rune symbols, deriving the alphabet
// from the distinct runes in sorted order. "abcabbabcb" yields the paper's
// running example with a=0, b=1, c=2.
func FromString(text string) *Series {
	if alpha, ok := asciiAlphabet(text); ok {
		if data, ok := asciiIndices(alpha, text); ok {
			return &Series{alpha: alpha, data: data}
		}
	}
	return fromStringRunes(text)
}

// fromStringRunes is FromString rune by rune, for text with a byte ≥ 0x80.
func fromStringRunes(text string) *Series {
	alpha := alphabet.FromString(text)
	s := &Series{alpha: alpha}
	for _, r := range text {
		k, _ := alpha.Index(string(r))
		s.data = append(s.data, uint16(k))
	}
	return s
}

// FromAlphabetText parses a series of single-rune symbols against an
// explicit alphabet: each rune of text must name an alphabet symbol, and the
// stored indices are the alphabet's. This is the distributed wire decode —
// unlike FromString, the alphabet (size, order, possibly symbols absent from
// text) travels with the data, so a worker rebuilding the series assigns
// exactly the coordinator's symbol indices.
func FromAlphabetText(alpha *alphabet.Alphabet, text string) (*Series, error) {
	if alpha.Size() > MaxAlphabet {
		return nil, fmt.Errorf("series: alphabet size %d exceeds %d", alpha.Size(), MaxAlphabet)
	}
	data, ok := asciiIndices(alpha, text)
	if !ok {
		var err error
		if data, err = alphabetTextRunes(alpha, text); err != nil {
			return nil, err
		}
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("series: empty series")
	}
	return &Series{alpha: alpha, data: data}, nil
}

// alphabetTextRunes is FromAlphabetText's index decode rune by rune, for text
// the ASCII table cannot decode.
func alphabetTextRunes(alpha *alphabet.Alphabet, text string) ([]uint16, error) {
	data := make([]uint16, 0, len(text))
	for i, r := range text {
		k, ok := alpha.Index(string(r))
		if !ok {
			return nil, fmt.Errorf("series: symbol %q at byte %d not in alphabet %v", string(r), i, alpha)
		}
		data = append(data, uint16(k))
	}
	return data, nil
}

// asciiAlphabet is alphabet.FromString for all-ASCII text, found with a
// byte table instead of a map lookup per rune. Ascending byte order is
// ascending rune order, so the symbols and their indices are
// alphabet.FromString's. ok is false on any byte ≥ 0x80.
func asciiAlphabet(text string) (alpha *alphabet.Alphabet, ok bool) {
	var seen [utf8.RuneSelf]bool
	for i := 0; i < len(text); i++ {
		if text[i] >= utf8.RuneSelf {
			return nil, false
		}
		seen[text[i]] = true
	}
	var symbols []string
	for c, in := range seen {
		if in {
			symbols = append(symbols, string(rune(c)))
		}
	}
	return alphabet.MustNew(symbols...), true // distinct by construction
}

// asciiIndices decodes non-empty text against alpha's single-byte ASCII
// symbols with a byte table into a pre-sized slice. ok is false for empty
// text, any byte ≥ 0x80, or any byte alpha lacks as a symbol; the rune-by-rune
// decode then gives the same indices or the same error.
func asciiIndices(alpha *alphabet.Alphabet, text string) (data []uint16, ok bool) {
	if len(text) == 0 {
		return nil, false
	}
	var index [utf8.RuneSelf]int32 // symbol index + 1; 0 marks a byte not in alpha
	for k, sym := range alpha.Symbols() {
		if len(sym) == 1 && sym[0] < utf8.RuneSelf {
			index[sym[0]] = int32(k) + 1
		}
	}
	data = make([]uint16, len(text))
	for i := 0; i < len(text); i++ {
		c := text[i]
		if c >= utf8.RuneSelf || index[c] == 0 {
			return nil, false
		}
		data[i] = uint16(index[c] - 1)
	}
	return data, true
}

// FromIndices builds a series without validation; it panics on an out-of-range
// index. Intended for generators that construct indices programmatically.
func FromIndices(alpha *alphabet.Alphabet, indices []uint16) *Series {
	for i, k := range indices {
		if int(k) >= alpha.Size() {
			panic(fmt.Sprintf("series: symbol index %d at position %d out of range [0,%d)", k, i, alpha.Size()))
		}
	}
	return &Series{alpha: alpha, data: indices}
}

// Len returns n, the series length.
func (s *Series) Len() int { return len(s.data) }

// Alphabet returns the series alphabet.
func (s *Series) Alphabet() *alphabet.Alphabet { return s.alpha }

// At returns the symbol index at position i.
func (s *Series) At(i int) int { return int(s.data[i]) }

// Indices returns the backing symbol-index slice. The caller must not mutate
// it.
func (s *Series) Indices() []uint16 { return s.data }

// String renders the series by concatenating its symbols.
func (s *Series) String() string {
	syms := s.alpha.Symbols()
	size := 0
	for _, k := range s.data {
		size += len(syms[k])
	}
	var b strings.Builder
	b.Grow(size)
	for _, k := range s.data {
		b.WriteString(syms[k])
	}
	return b.String()
}

// Slice returns the subseries [lo, hi) sharing the same alphabet.
func (s *Series) Slice(lo, hi int) *Series {
	return &Series{alpha: s.alpha, data: s.data[lo:hi]}
}

// F2 returns the number of times symbol index k occurs in two consecutive
// positions of the projection π_{p,l}(T); equivalently the number of i ≡ l
// (mod p) with t_i = t_{i+p} = s_k. This is the paper's F2(s_k, π_{p,l}(T)).
func (s *Series) F2(k, p, l int) int {
	if p <= 0 || l < 0 || l >= p {
		panic(fmt.Sprintf("series: invalid F2 p=%d l=%d", p, l))
	}
	count := 0
	for i := l; i+p < len(s.data); i += p {
		if int(s.data[i]) == k && int(s.data[i+p]) == k {
			count++
		}
	}
	return count
}

// Indicator returns the 0/1 indicator vector of symbol k as float64, for FFT
// correlation.
func (s *Series) Indicator(k int) []float64 {
	return s.IndicatorInto(k, make([]float64, len(s.data)))
}

// IndicatorInto writes the indicator vector of symbol k into out, which must
// have length ≥ Len, and returns out[:Len]. It lets batch FFT drivers reuse
// one buffer per worker instead of allocating σ vectors per sweep.
func (s *Series) IndicatorInto(k int, out []float64) []float64 {
	out = out[:len(s.data)]
	for i, v := range s.data {
		if int(v) == k {
			out[i] = 1
		} else {
			out[i] = 0
		}
	}
	return out
}

// Counts returns the number of occurrences of each symbol.
func (s *Series) Counts() []int {
	out := make([]int, s.alpha.Size())
	for _, v := range s.data {
		out[v]++
	}
	return out
}
