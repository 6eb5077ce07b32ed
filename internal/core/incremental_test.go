package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

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

func TestIncrementalMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	alpha := alphabet.Letters(4)
	m, err := NewIncrementalMiner(alpha, 20)
	if err != nil {
		t.Fatal(err)
	}
	var idx []uint16
	for i := 0; i < 300; i++ {
		k := rng.Intn(4)
		if err := m.Append(k); err != nil {
			t.Fatal(err)
		}
		idx = append(idx, uint16(k))
		if i > 10 && i%50 == 0 {
			// At several stream lengths, the online answer must equal the
			// batch answer.
			got, err := m.Periodicities(Options{Threshold: 0.4})
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

func TestIncrementalF2Counts(t *testing.T) {
	m, err := NewIncrementalMiner(alphabet.Letters(3), 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range "abcabbabcb" {
		if err := m.AppendSymbol(string(r)); err != nil {
			t.Fatal(err)
		}
	}
	// Paper values: F2(a, π_{3,0}) = 2, F2(b, π_{3,1}) = 2, F2(b, π_{4,1}) = 2.
	if got := m.F2(0, 3, 0); got != 2 {
		t.Fatalf("F2(a,3,0) = %d, want 2", got)
	}
	if got := m.F2(1, 3, 1); got != 2 {
		t.Fatalf("F2(b,3,1) = %d, want 2", got)
	}
	if got := m.F2(1, 4, 1); got != 2 {
		t.Fatalf("F2(b,4,1) = %d, want 2", got)
	}
}

func TestIncrementalMineEqualsBatchMine(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	alpha := alphabet.Letters(3)
	m, err := NewIncrementalMiner(alpha, 30)
	if err != nil {
		t.Fatal(err)
	}
	var idx []uint16
	for i := 0; i < 200; i++ {
		k := rng.Intn(3)
		_ = m.Append(k)
		idx = append(idx, uint16(k))
	}
	got, err := mine(m.Series(), m.MineOptions(Options{Threshold: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	want, err := mine(series.FromIndices(alpha, idx), Options{Threshold: 0.5, MaxPeriod: 30})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Periodicities, want.Periodicities) {
		t.Fatal("incremental Mine differs from batch Mine")
	}
	if !reflect.DeepEqual(got.Patterns, want.Patterns) {
		t.Fatal("incremental patterns differ from batch")
	}
}

func TestMergeEqualsContiguousIngest(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	alpha := alphabet.Letters(4)
	for trial := 0; trial < 10; trial++ {
		lenA := rng.Intn(80) + 1
		lenB := rng.Intn(80) + 1
		maxP := rng.Intn(25) + 1

		a, _ := NewIncrementalMiner(alpha, maxP)
		b, _ := NewIncrementalMiner(alpha, maxP)
		whole, _ := NewIncrementalMiner(alpha, maxP)
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
		if a.Len() != whole.Len() {
			t.Fatalf("merged length %d, want %d", a.Len(), whole.Len())
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
	a, _ := NewIncrementalMiner(alphabet.Letters(2), 5)
	b, _ := NewIncrementalMiner(alphabet.Letters(2), 6)
	if err := a.Merge(b); err == nil {
		t.Fatal("mismatched period bounds: want error")
	}
	c, _ := NewIncrementalMiner(alphabet.Letters(3), 5)
	if err := a.Merge(c); err == nil {
		t.Fatal("mismatched alphabets: want error")
	}
}

func TestIncrementalValidates(t *testing.T) {
	if _, err := NewIncrementalMiner(alphabet.Letters(2), 0); err == nil {
		t.Fatal("maxPeriod 0: want error")
	}
	m, _ := NewIncrementalMiner(alphabet.Letters(2), 5)
	if err := m.Append(7); err == nil {
		t.Fatal("bad symbol index: want error")
	}
	if err := m.AppendSymbol("z"); err == nil {
		t.Fatal("unknown symbol: want error")
	}
	if _, err := m.Periodicities(Options{Threshold: 0}); err == nil {
		t.Fatal("ψ=0: want error")
	}
	if _, err := mine(m.Series(), m.MineOptions(Options{Threshold: 0.5})); err == nil {
		t.Fatal("empty stream mine: want error")
	}
}

func TestIncrementalF2PanicsOutsideRange(t *testing.T) {
	m, _ := NewIncrementalMiner(alphabet.Letters(2), 5)
	defer func() {
		if recover() == nil {
			t.Fatal("F2 beyond maxPeriod: want panic")
		}
	}()
	m.F2(0, 6, 0)
}

func TestMergeProperty(t *testing.T) {
	alpha := alphabet.Letters(3)
	f := func(seed int64, la, lb, mp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		lenA, lenB := int(la)%40+1, int(lb)%40+1
		maxP := int(mp)%15 + 1
		a, _ := NewIncrementalMiner(alpha, maxP)
		whole, _ := NewIncrementalMiner(alpha, maxP)
		b, _ := NewIncrementalMiner(alpha, maxP)
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
