package core

import (
	"math/rand"
	"reflect"
	"testing"

	"periodica/internal/alphabet"
	"periodica/internal/series"
)

func TestCountsMatchesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	alpha := alphabet.Letters(4)
	inc, err := NewIncrementalMiner(alpha, 15)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewCounts(4, 15)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		k := rng.Intn(4)
		if err := inc.Append(k); err != nil {
			t.Fatal(err)
		}
		if err := sc.Append(k); err != nil {
			t.Fatal(err)
		}
		if i%100 == 50 {
			a, err := inc.Periodicities(Options{Threshold: 0.3})
			if err != nil {
				t.Fatal(err)
			}
			b, err := sc.Periodicities(Options{Threshold: 0.3})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sortPers(a), sortPers(b)) {
				t.Fatalf("at n=%d: bare count table differs from incremental miner", i+1)
			}
		}
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

func TestCountsValidates(t *testing.T) {
	if _, err := NewCounts(0, 5); err == nil {
		t.Fatal("sigma 0: want error")
	}
	if _, err := NewCounts(2, 0); err == nil {
		t.Fatal("maxPeriod 0: want error")
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
