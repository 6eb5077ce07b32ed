package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"periodica/internal/alphabet"
	"periodica/internal/series"
)

func TestMineLiteralMatchesMine(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	for trial := 0; trial < 12; trial++ {
		n := rng.Intn(70) + 10
		sigma := rng.Intn(4) + 2
		idx := make([]uint16, n)
		for i := range idx {
			idx[i] = uint16(rng.Intn(sigma))
		}
		s := series.FromIndices(alphabet.Letters(sigma), idx)
		// ψ above 0.5 keeps the Cartesian product finite on random data: a
		// two-occurrence period then needs both occurrences to match, which
		// chance rarely provides.
		for _, psi := range []float64{0.55, 0.75, 1} {
			lit, err := MineLiteral(s, psi, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			// Mine with the paper-equivalent settings: default period range,
			// patterns for every period.
			ref, err := mine(s, Options{Threshold: psi, Engine: EngineNaive,
				MaxPatternPeriod: n, MaxPatterns: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			if lit.PatternsTruncated || ref.PatternsTruncated {
				t.Fatalf("T=%s ψ=%v: enumeration truncated, test premise broken", s, psi)
			}
			if !reflect.DeepEqual(lit.Periodicities, ref.Periodicities) {
				t.Fatalf("T=%s ψ=%v: literal periodicities differ\nlit: %v\nref: %v",
					s, psi, lit.Periodicities, ref.Periodicities)
			}
			if !reflect.DeepEqual(lit.Periods, ref.Periods) {
				t.Fatalf("T=%s ψ=%v: periods differ: %v vs %v", s, psi, lit.Periods, ref.Periods)
			}
			if !reflect.DeepEqual(lit.Patterns, ref.Patterns) {
				t.Fatalf("T=%s ψ=%v: patterns differ\nlit: %v\nref: %v", s, psi, lit.Patterns, ref.Patterns)
			}
			if !reflect.DeepEqual(lit.SingleSymbol, ref.SingleSymbol) {
				t.Fatalf("T=%s ψ=%v: single patterns differ", s, psi)
			}
		}
	}
}

func TestMineLiteralRunningExample(t *testing.T) {
	s := series.FromString("abcabbabcb")
	res, err := MineLiteral(s, 2.0/3.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	foundAB := false
	for _, pt := range res.Patterns {
		if pt.Period == 3 && pt.Render(s.Alphabet()) == "ab*" {
			foundAB = true
			if pt.Count != 2 {
				t.Fatalf("|W′_3| = %d, want 2", pt.Count)
			}
		}
	}
	if !foundAB {
		t.Fatal("literal algorithm missed the paper's ab* pattern")
	}
}

func TestMineLiteralValidates(t *testing.T) {
	s := series.FromString("abcabc")
	if _, err := MineLiteral(s, 0, 0); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("ψ=0: error %v does not match ErrInvalidInput", err)
	}
	one := series.FromString("a")
	if _, err := MineLiteral(one, 0.5, 0); err == nil {
		t.Fatal("n=1: want error")
	}
}
