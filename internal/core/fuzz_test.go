package core

import (
	"reflect"
	"testing"

	"periodica/internal/alphabet"
	"periodica/internal/series"
)

// FuzzMine drives the miner with arbitrary symbol streams and thresholds,
// checking the structural invariants and cross-engine agreement.
func FuzzMine(f *testing.F) {
	f.Add([]byte("abcabbabcb"), uint8(66))
	f.Add([]byte("aaaaaaa"), uint8(100))
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 0, 1}, uint8(50))
	f.Add([]byte("xy"), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, thr uint8) {
		if len(data) < 2 || len(data) > 200 {
			t.Skip()
		}
		const sigma = 4
		idx := make([]uint16, len(data))
		for i, b := range data {
			idx[i] = uint16(b % sigma)
		}
		s := series.FromIndices(alphabet.Letters(sigma), idx)
		psi := float64(thr%100+1) / 100

		naive, err := mine(s, Options{Threshold: psi, Engine: EngineNaive})
		if err != nil {
			t.Fatalf("naive: %v", err)
		}
		bitset, err := mine(s, Options{Threshold: psi, Engine: EngineBitset})
		if err != nil {
			t.Fatalf("bitset: %v", err)
		}
		if !reflect.DeepEqual(naive.Periodicities, bitset.Periodicities) {
			t.Fatal("engines disagree on periodicities")
		}
		if !reflect.DeepEqual(naive.Patterns, bitset.Patterns) {
			t.Fatal("engines disagree on patterns")
		}
		for _, sp := range naive.Periodicities {
			if sp.Confidence < psi || sp.Confidence > 1 {
				t.Fatalf("confidence %v outside [ψ,1]", sp.Confidence)
			}
			if sp.F2 < 1 || sp.F2 > sp.Pairs {
				t.Fatalf("F2 %d outside [1,%d]", sp.F2, sp.Pairs)
			}
			if want := s.F2(sp.Symbol, sp.Period, sp.Position); sp.F2 != want {
				t.Fatalf("reported F2 %d != definitional %d", sp.F2, want)
			}
		}
		for _, pt := range naive.Patterns {
			if pt.FixedSymbols() < 2 {
				t.Fatal("multi-symbol pattern with < 2 fixed symbols")
			}
			if pt.Support < psi {
				t.Fatal("pattern below threshold")
			}
		}
	})
}

// FuzzIncremental checks the online miner against the batch miner on
// arbitrary streams.
func FuzzIncremental(f *testing.F) {
	f.Add([]byte("abcabcabc"))
	f.Add([]byte{1, 1, 2, 2, 1, 1, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 150 {
			t.Skip()
		}
		const sigma = 3
		alpha := alphabet.Letters(sigma)
		m, err := NewIncrementalMiner(alpha, 10)
		if err != nil {
			t.Fatal(err)
		}
		idx := make([]uint16, len(data))
		for i, b := range data {
			k := int(b % sigma)
			idx[i] = uint16(k)
			if err := m.Append(k); err != nil {
				t.Fatal(err)
			}
		}
		got, err := m.Periodicities(0.5)
		if err != nil {
			t.Fatal(err)
		}
		s := series.FromIndices(alpha, idx)
		mp := 10
		if mp >= s.Len() {
			mp = s.Len() - 1
		}
		res, err := mine(s, Options{Threshold: 0.5, MaxPeriod: mp, Engine: EngineNaive, MaxPatternPeriod: -1})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sortPers(got), sortPers(res.Periodicities)) {
			t.Fatal("incremental disagrees with batch")
		}
	})
}
