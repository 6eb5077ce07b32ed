package core

import (
	"math"
	"math/rand"
	"testing"

	"periodica/internal/alphabet"
	"periodica/internal/series"
)

// binomialUpperTailBrute sums the binomial pmf directly for small cases.
func binomialUpperTailBrute(trials, hits int, rate float64) float64 {
	sum := 0.0
	for j := hits; j <= trials; j++ {
		c := 1.0
		for i := 0; i < j; i++ {
			c = c * float64(trials-i) / float64(i+1)
		}
		sum += c * math.Pow(rate, float64(j)) * math.Pow(1-rate, float64(trials-j))
	}
	return sum
}

func TestBinomialUpperTailMatchesBrute(t *testing.T) {
	cases := []struct {
		trials, hits int
		rate         float64
	}{
		{10, 3, 0.2}, {10, 0, 0.2}, {10, 10, 0.5}, {20, 15, 0.3},
		{5, 1, 0.01}, {30, 5, 0.1}, {15, 15, 0.9},
	}
	for _, c := range cases {
		got := binomialUpperTail(c.trials, c.hits, c.rate)
		want := binomialUpperTailBrute(c.trials, c.hits, c.rate)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("tail(%d,%d,%v) = %v, want %v", c.trials, c.hits, c.rate, got, want)
		}
	}
}

func TestBinomialUpperTailEdges(t *testing.T) {
	if got := binomialUpperTail(10, 0, 0.5); got != 1 {
		t.Fatalf("hits=0: %v, want 1", got)
	}
	if got := binomialUpperTail(10, 11, 0.5); got != 1 {
		t.Fatalf("hits>trials: %v, want 1", got)
	}
	if got := binomialUpperTail(10, 3, 0); got != 0 {
		t.Fatalf("rate=0: %v, want 0", got)
	}
	if got := binomialUpperTail(10, 3, 1); got != 1 {
		t.Fatalf("rate=1: %v, want 1", got)
	}
}

func TestBinomialUpperTailLargeTrials(t *testing.T) {
	// 600 hits in 1000 trials at rate 0.5: z ≈ 6.3, p ≈ 1.4e-10.
	p := binomialUpperTail(1000, 600, 0.5)
	if p > 1e-8 || p < 1e-12 {
		t.Fatalf("large-trials tail = %v, want ≈1e-10", p)
	}
}

func TestSignificanceSeparatesStructureFromFlukes(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	// Periodic symbol 0 at period 10 over an otherwise random series.
	idx := make([]uint16, 2000)
	for i := range idx {
		idx[i] = uint16(1 + rng.Intn(3))
		if i%10 == 0 {
			idx[i] = 0
		}
	}
	s := series.FromIndices(alphabet.Letters(4), idx)
	res, err := mine(s, Options{Threshold: 0.9, MaxPatternPeriod: -1})
	if err != nil {
		t.Fatal(err)
	}
	sig := NewSignificance(s)

	// The embedded periodicity must be overwhelmingly significant.
	var embedded *SymbolPeriodicity
	flukes := 0
	for i, sp := range res.Periodicities {
		if sp.Symbol == 0 && sp.Period == 10 && sp.Position == 0 {
			embedded = &res.Periodicities[i]
		} else if sp.Pairs <= 2 {
			flukes++
		}
	}
	if embedded == nil {
		t.Fatal("embedded periodicity not detected")
	}
	if p := sig.PValue(*embedded); p > 1e-20 {
		t.Fatalf("embedded p-value %v, want ≪ 1e-20", p)
	}
	if flukes == 0 {
		t.Fatal("test premise broken: no low-mass periodicities at ψ=0.9")
	}

	// After Bonferroni-corrected filtering, the embedded periodicity
	// survives and the low-mass flukes die.
	tests := TestsForRange(4, 1, s.Len()/2)
	kept, err := sig.FilterSignificant(res.Periodicities, 0.01, tests)
	if err != nil {
		t.Fatal(err)
	}
	foundEmbedded := false
	for _, sp := range kept {
		if sp.Symbol == 0 && sp.Period == 10 && sp.Position == 0 {
			foundEmbedded = true
		}
		if sp.Pairs <= 2 {
			t.Fatalf("two-pair fluke survived Bonferroni filtering: %+v", sp)
		}
	}
	if !foundEmbedded {
		t.Fatal("embedded periodicity filtered out")
	}
	if len(kept) >= len(res.Periodicities) {
		t.Fatal("filter removed nothing")
	}
}

func TestFilterSignificantValidates(t *testing.T) {
	sig := NewSignificance(series.FromString("abab"))
	if _, err := sig.FilterSignificant(nil, 0, 0); err == nil {
		t.Fatal("alpha 0: want error")
	}
	if _, err := sig.FilterSignificant(nil, 2, 0); err == nil {
		t.Fatal("alpha 2: want error")
	}
}

func TestTestsForRange(t *testing.T) {
	// σ=2, periods 1..3: 2·(1+2+3) = 12.
	if got := TestsForRange(2, 1, 3); got != 12 {
		t.Fatalf("TestsForRange = %d, want 12", got)
	}
}

func TestPValueOutOfRangeSymbol(t *testing.T) {
	sig := NewSignificance(series.FromString("ab"))
	if got := sig.PValue(SymbolPeriodicity{Symbol: 9, Pairs: 5, F2: 5}); got != 1 {
		t.Fatalf("out-of-range symbol p-value %v, want 1", got)
	}
}
