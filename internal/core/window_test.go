package core

import (
	"math/rand"
	"testing"
)

// windowBrute recomputes the window counts definitionally from the retained
// symbols.
func windowBrute(m *WindowMiner, stream []int, k, p, l int) (f2, pairs int) {
	start := m.start()
	end := start + m.Len() - 1
	for i := start; i+p <= end; i++ {
		if i%p != l {
			continue
		}
		pairs++
		if stream[i] == k && stream[i+p] == k {
			f2++
		}
	}
	return f2, pairs
}

func TestWindowMinerMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	const sigma, maxP, window = 3, 12, 40
	m, err := NewWindowMiner(sigma, maxP, window)
	if err != nil {
		t.Fatal(err)
	}
	var stream []int
	for i := 0; i < 300; i++ {
		k := rng.Intn(sigma)
		stream = append(stream, k)
		if err := m.Append(k); err != nil {
			t.Fatal(err)
		}
		if i%37 != 0 || i < 5 {
			continue
		}
		for k := 0; k < sigma; k++ {
			for p := 1; p <= maxP; p++ {
				for l := 0; l < p; l++ {
					wantF2, wantPairs := windowBrute(m, stream, k, p, l)
					if got := m.windowPairs(p, l); got != wantPairs {
						t.Fatalf("i=%d: windowPairs(%d,%d) = %d, want %d", i, p, l, got, wantPairs)
					}
					gotF2 := m.counts.F2(k, p, l)
					if gotF2 != wantF2 {
						t.Fatalf("i=%d: window F2(%d,%d,%d) = %d, want %d", i, k, p, l, gotF2, wantF2)
					}
				}
			}
		}
	}
}

func TestWindowMinerAgesOutOldRegime(t *testing.T) {
	const sigma, maxP, window = 4, 10, 60
	m, err := NewWindowMiner(sigma, maxP, window)
	if err != nil {
		t.Fatal(err)
	}
	// Regime 1: period 3 (abc). Fill well past the window.
	for i := 0; i < 200; i++ {
		_ = m.Append(i % 3)
	}
	pers, err := m.Periodicities(Options{Threshold: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if !hasPeriod(pers, 3) {
		t.Fatal("period 3 not detected in regime 1")
	}
	// Regime 2: period 4 (abcd). After a full window, regime 1 is gone.
	for i := 0; i < 200; i++ {
		_ = m.Append(i % 4)
	}
	pers, err = m.Periodicities(Options{Threshold: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if hasPeriod(pers, 3) {
		t.Fatal("stale period 3 still reported after the window slid past it")
	}
	if !hasPeriod(pers, 4) {
		t.Fatal("period 4 not detected in regime 2")
	}
}

func hasPeriod(pers []SymbolPeriodicity, p int) bool {
	for _, sp := range pers {
		if sp.Period == p {
			return true
		}
	}
	return false
}

func TestWindowMinerValidates(t *testing.T) {
	if _, err := NewWindowMiner(0, 5, 20); err == nil {
		t.Fatal("sigma 0: want error")
	}
	if _, err := NewWindowMiner(2, 0, 20); err == nil {
		t.Fatal("maxPeriod 0: want error")
	}
	if _, err := NewWindowMiner(2, 5, 5); err == nil {
		t.Fatal("window ≤ maxPeriod: want error")
	}
	m, _ := NewWindowMiner(2, 5, 20)
	if err := m.Append(5); err == nil {
		t.Fatal("bad symbol: want error")
	}
	if _, err := m.Periodicities(Options{Threshold: 2}); err == nil {
		t.Fatal("ψ>1: want error")
	}
}

func TestWindowMinerCountsNeverNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	m, _ := NewWindowMiner(5, 8, 30)
	for i := 0; i < 5000; i++ {
		_ = m.Append(rng.Intn(5))
	}
	for k, rows := range m.counts.Table {
		for p, row := range rows {
			for l, c := range row {
				if c < 0 {
					t.Fatalf("negative count at (%d,%d,%d): %d", k, p, l, c)
				}
			}
		}
	}
}
