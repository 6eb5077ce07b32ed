package series

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"periodica/internal/alphabet"
)

func TestFromStringRunningExample(t *testing.T) {
	s := FromString("abcabbabcb")
	if s.Len() != 10 {
		t.Fatalf("Len = %d, want 10", s.Len())
	}
	if s.Alphabet().Size() != 3 {
		t.Fatalf("σ = %d, want 3", s.Alphabet().Size())
	}
	if s.String() != "abcabbabcb" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestProjectionPaperExamples(t *testing.T) {
	// π_{4,1}(abcabbabcb) = bbb, π_{3,0} = aaab (paper §2.2).
	s := FromString("abcabbabcb")
	b, _ := s.Alphabet().Index("b")
	a, _ := s.Alphabet().Index("a")
	p41 := s.Projection(4, 1)
	if len(p41) != 3 || p41[0] != b || p41[1] != b || p41[2] != b {
		t.Fatalf("π_{4,1} = %v, want [b b b]", p41)
	}
	p30 := s.Projection(3, 0)
	want := []int{a, a, a, b}
	if len(p30) != 4 {
		t.Fatalf("π_{3,0} length %d, want 4", len(p30))
	}
	for i := range want {
		if p30[i] != want[i] {
			t.Fatalf("π_{3,0} = %v, want %v", p30, want)
		}
	}
}

func TestProjectionLen(t *testing.T) {
	s := FromString("abcabbabcb")
	if got := s.ProjectionLen(3, 0); got != 4 {
		t.Fatalf("ProjectionLen(3,0) = %d, want 4", got)
	}
	if got := s.ProjectionLen(3, 1); got != 3 {
		t.Fatalf("ProjectionLen(3,1) = %d, want 3", got)
	}
	if got := s.ProjectionLen(4, 1); got != 3 {
		t.Fatalf("ProjectionLen(4,1) = %d, want 3", got)
	}
}

func TestF2StringPaperExample(t *testing.T) {
	// T = abbaaabaa: F2(a,T) = 3, F2(b,T) = 1 (paper §2.2).
	s := FromString("abbaaabaa")
	a, _ := s.Alphabet().Index("a")
	b, _ := s.Alphabet().Index("b")
	seq := make([]int, s.Len())
	for i := range seq {
		seq[i] = s.At(i)
	}
	if got := F2String(seq, a); got != 3 {
		t.Fatalf("F2(a, abbaaabaa) = %d, want 3", got)
	}
	if got := F2String(seq, b); got != 1 {
		t.Fatalf("F2(b, abbaaabaa) = %d, want 1", got)
	}
}

func TestF2PaperExample(t *testing.T) {
	// F2(a, π_{3,0}(abcabbabcb)) = 2 with denominator ⌈10/3⌉−1 = 3 → 2/3.
	s := FromString("abcabbabcb")
	a, _ := s.Alphabet().Index("a")
	b, _ := s.Alphabet().Index("b")
	if got := s.F2(a, 3, 0); got != 2 {
		t.Fatalf("F2(a,3,0) = %d, want 2", got)
	}
	if got := s.F2(b, 3, 1); got != 2 {
		t.Fatalf("F2(b,3,1) = %d, want 2", got)
	}
	if got := s.F2(b, 4, 1); got != 2 {
		t.Fatalf("F2(b,4,1) = %d, want 2", got)
	}
}

func TestF2EqualsF2StringOnProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alpha := alphabet.Letters(4)
	idx := make([]uint16, 200)
	for i := range idx {
		idx[i] = uint16(rng.Intn(4))
	}
	s := FromIndices(alpha, idx)
	for p := 1; p <= 10; p++ {
		for l := 0; l < p; l++ {
			for k := 0; k < 4; k++ {
				if got, want := s.F2(k, p, l), F2String(s.Projection(p, l), k); got != want {
					t.Fatalf("F2(%d,%d,%d) = %d, want %d", k, p, l, got, want)
				}
			}
		}
	}
}

func TestMatchCount(t *testing.T) {
	// abcabbabcb vs shift 3: matches at i = 0,1,3,4 (paper: four matches).
	s := FromString("abcabbabcb")
	if got := s.MatchCount(3); got != 4 {
		t.Fatalf("MatchCount(3) = %d, want 4", got)
	}
}

func TestNewValidates(t *testing.T) {
	alpha := alphabet.Letters(3)
	if _, err := New(alpha, []int{0, 3}); err == nil {
		t.Fatal("New with out-of-range index: want error")
	}
	s, err := New(alpha, []int{0, 1, 2, 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if s.String() != "abcb" {
		t.Fatalf("String = %q, want abcb", s.String())
	}
}

func TestFromIndicesPanicsOnBadIndex(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromIndices with bad index: want panic")
		}
	}()
	FromIndices(alphabet.Letters(2), []uint16{0, 5})
}

func TestIndicator(t *testing.T) {
	s := FromString("abab")
	a, _ := s.Alphabet().Index("a")
	ind := s.Indicator(a)
	want := []float64{1, 0, 1, 0}
	for i := range want {
		if ind[i] != want[i] {
			t.Fatalf("Indicator(a) = %v, want %v", ind, want)
		}
	}
}

func TestCounts(t *testing.T) {
	s := FromString("abcabbabcb")
	got := s.Counts()
	want := []int{3, 5, 2} // a, b, c
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Counts = %v, want %v", got, want)
		}
	}
}

func TestSlice(t *testing.T) {
	s := FromString("abcabbabcb")
	sub := s.Slice(3, 6)
	if sub.String() != "abb" {
		t.Fatalf("Slice(3,6) = %q, want abb", sub.String())
	}
	if sub.Alphabet() != s.Alphabet() {
		t.Fatal("Slice changed alphabet")
	}
}

func TestStringMultiRuneSingleAlloc(t *testing.T) {
	alpha := alphabet.MustNew("lo", "mid", "hi", "ω")
	rng := rand.New(rand.NewSource(7))
	idx := make([]int, 4096)
	want := ""
	for i := range idx {
		idx[i] = rng.Intn(alpha.Size())
		want += alpha.Symbol(idx[i])
	}
	s, err := New(alpha, idx)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.String(); got != want {
		t.Fatalf("String differs from concatenation: got %d bytes, want %d", len(got), len(want))
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = s.String() }); allocs > 1 {
		t.Errorf("String allocates %v times per call, want at most 1", allocs)
	}
}

func TestProjectionInvalidPanics(t *testing.T) {
	s := FromString("abc")
	for _, c := range [][2]int{{0, 0}, {3, 3}, {2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Projection(%d,%d): want panic", c[0], c[1])
				}
			}()
			s.Projection(c[0], c[1])
		}()
	}
}

func TestF2SumOverPhasesEqualsMatchCountProperty(t *testing.T) {
	// Σ_k Σ_l F2(k,p,l) must equal MatchCount(p) for every p.
	f := func(seed int64, ln uint8, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(ln)%100 + 2
		p := int(pRaw)%(n-1) + 1
		idx := make([]uint16, n)
		for i := range idx {
			idx[i] = uint16(rng.Intn(3))
		}
		s := FromIndices(alphabet.Letters(3), idx)
		sum := 0
		for k := 0; k < 3; k++ {
			for l := 0; l < p; l++ {
				sum += s.F2(k, p, l)
			}
		}
		return sum == s.MatchCount(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestASCIIPathMatchesRunePath: FromString and FromAlphabetText give what
// their rune-by-rune decode gives — the same alphabet, indices and error —
// on ASCII text, where the byte table decodes it, and on multi-byte, invalid
// UTF-8 and out-of-alphabet text, where it falls back.
func TestASCIIPathMatchesRunePath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pools := map[string][]string{
		"ascii":      {"a", "b", "c", "z", "0", "~", " ", "\x00", "\x7f", "*"},
		"multi-byte": {"a", "b", "é", "日"},
		"invalid":    {"a", "b", "\xff", "\xc3"},
	}
	alphabets := []*alphabet.Alphabet{
		alphabet.MustNew("b", "a", "c", "z", "0", "~", " ", "\x00", "\x7f", "*"), // not sorted
		alphabet.MustNew("a", "b"),                     // misses most bytes
		alphabet.MustNew("a", "b", "é", "日", "\ufffd"), // multi-byte symbols too
		alphabet.MustNew("ab", "a", "b"),               // a multi-byte ASCII symbol
	}
	for name, pool := range pools {
		for trial := 0; trial < 50; trial++ {
			var b strings.Builder
			for i := rng.Intn(300); i >= 0; i-- {
				b.WriteString(pool[rng.Intn(len(pool))])
			}
			text := b.String()
			if got, want := FromString(text), fromStringRunes(text); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: FromString(%q) = %v %v, rune path %v %v", name, text, got.Alphabet(), got.Indices(), want.Alphabet(), want.Indices())
			}
			for _, alpha := range alphabets {
				got, gotErr := FromAlphabetText(alpha, text)
				want, wantErr := alphabetTextRunes(alpha, text)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: FromAlphabetText(%v, %q) err %v, rune path %v", name, alpha, text, gotErr, wantErr)
				}
				if gotErr == nil && !reflect.DeepEqual(got.Indices(), want) {
					t.Fatalf("%s: FromAlphabetText(%v, %q) = %v, rune path %v", name, alpha, text, got.Indices(), want)
				}
			}
		}
	}
	if _, err := FromAlphabetText(alphabet.Letters(2), ""); err == nil {
		t.Fatal("empty text: no error")
	}
}

// Definitional forms of the paper's projections and match counts, the
// references F2 is tested against.

// ProjectionLen returns m = ⌈(n−l)/p⌉, the length of π_{p,l}(T).
func (s *Series) ProjectionLen(p, l int) int {
	n := len(s.data)
	if l >= n {
		return 0
	}
	return (n - l + p - 1) / p
}

// Projection returns π_{p,l}(T) = t_l, t_{l+p}, t_{l+2p}, … as symbol indices.
// Requires 0 ≤ l < p.
func (s *Series) Projection(p, l int) []int {
	if p <= 0 || l < 0 || l >= p {
		panic(fmt.Sprintf("series: invalid projection p=%d l=%d", p, l))
	}
	var out []int
	for i := l; i < len(s.data); i += p {
		out = append(out, int(s.data[i]))
	}
	return out
}

// F2String counts consecutive equal-symbol pairs of symbol k in an arbitrary
// index sequence, matching the paper's F2(s, T) on a plain string (e.g.
// F2(a, "abbaaabaa") = 3).
func F2String(seq []int, k int) int {
	count := 0
	for i := 0; i+1 < len(seq); i++ {
		if seq[i] == k && seq[i+1] == k {
			count++
		}
	}
	return count
}

// MatchCount returns the number of positions i with t_i = t_{i+p}, i.e. the
// total symbol matches when T is compared to its p-shift T(p).
func (s *Series) MatchCount(p int) int {
	count := 0
	for i := 0; i+p < len(s.data); i++ {
		if s.data[i] == s.data[i+p] {
			count++
		}
	}
	return count
}
