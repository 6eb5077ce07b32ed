package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"periodica/internal/alphabet"
	"periodica/internal/series"
)

// batchPeriodicities mines s with the naive engine restricted to maxPeriod.
func batchPeriodicities(t *testing.T, s *series.Series, psi float64, maxPeriod int) []SymbolPeriodicity {
	t.Helper()
	mp := maxPeriod
	if mp >= s.Len() {
		mp = s.Len() - 1
	}
	res, err := mine(s, Options{Threshold: psi, MaxPeriod: mp, Engine: EngineNaive, MaxPatternPeriod: -1})
	if err != nil {
		t.Fatal(err)
	}
	return res.Periodicities
}

func sortPers(pers []SymbolPeriodicity) []SymbolPeriodicity {
	out := append([]SymbolPeriodicity(nil), pers...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			if b.Period < a.Period || (b.Period == a.Period && (b.Position < a.Position ||
				(b.Position == a.Position && b.Symbol < a.Symbol))) {
				out[j-1], out[j] = b, a
			} else {
				break
			}
		}
	}
	return out
}

// fillCounts returns a table tracking periods 1..maxP that has ingested idx.
func fillCounts(t testing.TB, sigma, maxP int, idx []uint16) *Counts {
	t.Helper()
	c, err := NewCounts(sigma, maxP)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range idx {
		if err := c.Append(int(k)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestIncrementalMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	alpha := alphabet.Letters(4)
	c, err := NewCounts(4, 20)
	if err != nil {
		t.Fatal(err)
	}
	var idx []uint16
	for i := 0; i < 300; i++ {
		k := rng.Intn(4)
		if err := c.Append(k); err != nil {
			t.Fatal(err)
		}
		idx = append(idx, uint16(k))
		if i > 10 && i%50 == 0 {
			// At several stream lengths, the online answer must equal the
			// batch answer.
			got, err := c.Periodicities(Options{Threshold: 0.4})
			if err != nil {
				t.Fatal(err)
			}
			want := batchPeriodicities(t, series.FromIndices(alpha, idx), 0.4, 20)
			if !reflect.DeepEqual(sortPers(got), sortPers(want)) {
				t.Fatalf("at n=%d: online %v != batch %v", i+1, got, want)
			}
		}
	}
}

func TestMergeEqualsContiguousIngest(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 10; trial++ {
		lenA := rng.Intn(80) + 1
		lenB := rng.Intn(80) + 1
		maxP := rng.Intn(25) + 1

		a, b, whole := fillCounts(t, 4, maxP, nil), fillCounts(t, 4, maxP, nil), fillCounts(t, 4, maxP, nil)
		for i := 0; i < lenA; i++ {
			k := rng.Intn(4)
			_ = a.Append(k)
			_ = whole.Append(k)
		}
		for i := 0; i < lenB; i++ {
			k := rng.Intn(4)
			_ = b.Append(k)
			_ = whole.Append(k)
		}
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		if a.Length != whole.Length {
			t.Fatalf("merged length %d, want %d", a.Length, whole.Length)
		}
		for k := 0; k < 4; k++ {
			for p := 1; p <= maxP; p++ {
				for l := 0; l < p; l++ {
					if got, want := a.F2(k, p, l), whole.F2(k, p, l); got != want {
						t.Fatalf("trial %d (lenA=%d lenB=%d maxP=%d): merged F2(%d,%d,%d)=%d, want %d",
							trial, lenA, lenB, maxP, k, p, l, got, want)
					}
				}
			}
		}
	}
}

func TestMergeValidates(t *testing.T) {
	a := fillCounts(t, 2, 5, nil)
	if err := a.Merge(fillCounts(t, 2, 6, nil)); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("mismatched period bounds: error %v does not match ErrInvalidInput", err)
	}
	if err := a.Merge(fillCounts(t, 3, 5, nil)); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("mismatched alphabet sizes: error %v does not match ErrInvalidInput", err)
	}
}

func TestMergeProperty(t *testing.T) {
	f := func(seed int64, la, lb, mp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		lenA, lenB := int(la)%40+1, int(lb)%40+1
		maxP := int(mp)%15 + 1
		a, whole, b := fillCounts(t, 3, maxP, nil), fillCounts(t, 3, maxP, nil), fillCounts(t, 3, maxP, nil)
		for i := 0; i < lenA; i++ {
			k := rng.Intn(3)
			_ = a.Append(k)
			_ = whole.Append(k)
		}
		for i := 0; i < lenB; i++ {
			k := rng.Intn(3)
			_ = b.Append(k)
			_ = whole.Append(k)
		}
		if err := a.Merge(b); err != nil {
			return false
		}
		for k := 0; k < 3; k++ {
			for p := 1; p <= maxP; p++ {
				for l := 0; l < p; l++ {
					if a.F2(k, p, l) != whole.F2(k, p, l) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestCountsAnswerAMinesRange: a table tracking more periods than a mine of
// its stretch sweeps answers exactly what the mine reports — with the
// default range, periods up to n/2, not up to the tracked bound.
func TestCountsAnswerAMinesRange(t *testing.T) {
	s := series.FromString("abcabbabcbabcaabcabbacbcab")
	c, err := NewCounts(s.Alphabet().Size(), 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Len(); i++ {
		if err := c.Append(s.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, opt := range []Options{
		{Threshold: 0.5},
		{Threshold: 0.5, MinPeriod: 3, MinPairs: 2},
		{Threshold: 0.4, MaxPeriod: 10},
	} {
		got, err := c.Periodicities(opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Engine, opt.MaxPatternPeriod = EngineNaive, -1
		want, err := mine(s, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Periodicities) == 0 {
			t.Fatalf("%+v: the mine reports nothing; the case is vacuous", opt)
		}
		if !reflect.DeepEqual(sortPers(got), sortPers(want.Periodicities)) {
			t.Fatalf("%+v: table answers %v, mine %v", opt, got, want.Periodicities)
		}
	}
}

func TestCountsBoundedMemory(t *testing.T) {
	sc, err := NewCounts(10, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		_ = sc.Append(i % 10)
	}
	at2000 := sc.MemoryBytes()
	for i := 0; i < 50000; i++ {
		_ = sc.Append(i % 10)
	}
	if sc.MemoryBytes() != at2000 {
		t.Fatalf("memory grew with stream length: %d → %d bytes", at2000, sc.MemoryBytes())
	}
	if sc.Length != 52000 {
		t.Fatalf("Length = %d", sc.Length)
	}
}

// TestCountsMemoryBytesCountsHeaders: a fresh table holds only its σ nil
// plane headers; a symbol's first match makes its plane of MaxPeriod+1 row
// headers, each phase row Append materialises adds 4p bytes, and each Head
// and Tail symbol takes two.
func TestCountsMemoryBytesCountsHeaders(t *testing.T) {
	const plane, header = int(unsafe.Sizeof([][]int32(nil))), int(unsafe.Sizeof([]int32(nil)))
	c, err := NewCounts(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.MemoryBytes(), 3*plane; got != want {
		t.Fatalf("fresh NewCounts(3, 10): MemoryBytes = %d, want %d (3 plane headers)", got, want)
	}
	// "aab": the second a closes the lag-1 match of a, making a's plane
	// (11 row headers) and row (a, 1) (4 bytes); b closes nothing, so b and
	// c keep nil planes.
	for i, k := range []int{0, 0, 1} {
		if err := c.Append(k); err != nil {
			t.Fatal(err)
		}
		rows := 0
		if i >= 1 {
			rows = 11*header + 4*1
		}
		if got, want := c.MemoryBytes(), 3*plane+rows+2*2*(i+1); got != want {
			t.Fatalf("after %d symbols: MemoryBytes = %d, want %d", i+1, got, want)
		}
	}
	// The a of "aaba" closes the lag-2 and lag-3 matches of a: rows (a, 2)
	// and (a, 3) add 4·2 and 4·3 bytes to the plane a already has.
	if err := c.Append(0); err != nil {
		t.Fatal(err)
	}
	if got, want := c.MemoryBytes(), 3*plane+11*header+4*1+4*2+4*3+2*2*4; got != want {
		t.Fatalf("after aaba: MemoryBytes = %d, want %d", got, want)
	}
	if c.Table[1] != nil || c.Table[2] != nil {
		t.Fatal("b and c matched nothing but hold planes")
	}
}

func TestCountsF2Exact(t *testing.T) {
	sc, _ := NewCounts(3, 5)
	for _, r := range "abcabbabcb" {
		if err := sc.Append(int(r - 'a')); err != nil {
			t.Fatal(err)
		}
	}
	if got := sc.F2(0, 3, 0); got != 2 {
		t.Fatalf("F2(a,3,0) = %d, want 2", got)
	}
	if got := sc.F2(1, 4, 1); got != 2 {
		t.Fatalf("F2(b,4,1) = %d, want 2", got)
	}
}

// TestIncrementalF2Counts feeds the paper's example by symbol name, one
// symbol at a time, and checks the counts the paper gives.
func TestIncrementalF2Counts(t *testing.T) {
	alpha := alphabet.Letters(3)
	sc, err := NewCounts(alpha.Size(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range "abcabbabcb" {
		k, err := SymbolIndex(alpha, string(r))
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Append(k); err != nil {
			t.Fatal(err)
		}
	}
	// Paper values: F2(a, π_{3,0}) = 2, F2(b, π_{3,1}) = 2, F2(b, π_{4,1}) = 2.
	if got := sc.F2(0, 3, 0); got != 2 {
		t.Fatalf("F2(a,3,0) = %d, want 2", got)
	}
	if got := sc.F2(1, 3, 1); got != 2 {
		t.Fatalf("F2(b,3,1) = %d, want 2", got)
	}
	if got := sc.F2(1, 4, 1); got != 2 {
		t.Fatalf("F2(b,4,1) = %d, want 2", got)
	}
}

// TestCountsMatchesIncremental: at every checkpoint, the table fed the whole
// prefix symbol by symbol answers what two tables fed its two halves and
// merged answer.
func TestCountsMatchesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	sc, err := NewCounts(4, 15)
	if err != nil {
		t.Fatal(err)
	}
	var idx []uint16
	reported := 0
	for i := 0; i < 500; i++ {
		k := rng.Intn(4)
		if err := sc.Append(k); err != nil {
			t.Fatal(err)
		}
		idx = append(idx, uint16(k))
		if i%100 == 50 {
			cut := len(idx) / 2
			merged := fillCounts(t, 4, 15, idx[:cut])
			if err := merged.Merge(fillCounts(t, 4, 15, idx[cut:])); err != nil {
				t.Fatal(err)
			}
			a, err := merged.Periodicities(Options{Threshold: 0.3})
			if err != nil {
				t.Fatal(err)
			}
			b, err := sc.Periodicities(Options{Threshold: 0.3})
			if err != nil {
				t.Fatal(err)
			}
			reported += len(b)
			if !reflect.DeepEqual(sortPers(a), sortPers(b)) {
				t.Fatalf("at n=%d: merged table %v differs from whole table %v", i+1, a, b)
			}
		}
	}
	if reported == 0 {
		t.Fatal("no checkpoint reports a periodicity; the case is vacuous")
	}
}

func TestCountsValidates(t *testing.T) {
	if _, err := NewCounts(0, 5); err == nil {
		t.Fatal("sigma 0: want error")
	}
	if _, err := NewCounts(2, 0); err == nil {
		t.Fatal("maxPeriod 0: want error")
	}
	// Symbols are held as uint16: a wider alphabet would alias.
	if _, err := NewCounts(series.MaxAlphabet+1, 1); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("sigma %d: error %v does not match ErrInvalidInput", series.MaxAlphabet+1, err)
	}
	if _, err := NewCounts(series.MaxAlphabet, 1); err != nil {
		t.Fatalf("sigma %d: %v", series.MaxAlphabet, err)
	}
	sc, _ := NewCounts(2, 5)
	if err := sc.Append(9); err == nil {
		t.Fatal("bad symbol: want error")
	}
	if _, err := sc.Periodicities(Options{Threshold: 0}); err == nil {
		t.Fatal("ψ=0: want error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("F2 out of range: want panic")
		}
	}()
	sc.F2(0, 9, 0)
}

func TestIncrementalValidates(t *testing.T) {
	if _, err := NewCounts(2, 0); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("maxPeriod 0: error %v does not match ErrInvalidInput", err)
	}
	sc, _ := NewCounts(2, 5)
	if err := sc.Append(7); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("bad symbol index: error %v does not match ErrInvalidInput", err)
	}
	if _, err := SymbolIndex(alphabet.Letters(2), "z"); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("unknown symbol: error %v does not match ErrInvalidInput", err)
	}
	if _, err := sc.Periodicities(Options{Threshold: 0}); err == nil {
		t.Fatal("ψ=0: want error")
	}
}

func TestIncrementalF2PanicsOutsideRange(t *testing.T) {
	sc, _ := NewCounts(2, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("F2 beyond maxPeriod: want panic")
		}
	}()
	sc.F2(0, 6, 0)
}
