package discretize

import (
	"testing"
	"testing/quick"

	"periodica/internal/alphabet"
)

func TestNewBreakpointsLevels(t *testing.T) {
	s, err := NewBreakpoints([]float64{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	if s.Levels() != 4 {
		t.Fatalf("Levels = %d, want 4", s.Levels())
	}
	cases := map[float64]int{5: 0, 9.99: 0, 10: 1, 15: 1, 20: 2, 29: 2, 30: 3, 1000: 3}
	for v, want := range cases {
		if got := s.Level(v); got != want {
			t.Errorf("Level(%v) = %d, want %d", v, got, want)
		}
	}
}

func TestNewBreakpointsValidates(t *testing.T) {
	if _, err := NewBreakpoints(nil); err == nil {
		t.Fatal("empty breakpoints: want error")
	}
	if _, err := NewBreakpoints([]float64{1, 1}); err == nil {
		t.Fatal("non-ascending breakpoints: want error")
	}
	if _, err := NewBreakpoints([]float64{2, 1}); err == nil {
		t.Fatal("descending breakpoints: want error")
	}
}

func TestNewEqualWidth(t *testing.T) {
	s, err := NewEqualWidth(0, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.Levels() != 5 {
		t.Fatalf("Levels = %d, want 5", s.Levels())
	}
	cases := map[float64]int{-5: 0, 0: 0, 19: 0, 20: 1, 45: 2, 79: 3, 80: 4, 200: 4}
	for v, want := range cases {
		if got := s.Level(v); got != want {
			t.Errorf("Level(%v) = %d, want %d", v, got, want)
		}
	}
}

func TestNewEqualWidthValidates(t *testing.T) {
	if _, err := NewEqualWidth(0, 10, 1); err == nil {
		t.Fatal("levels=1: want error")
	}
	if _, err := NewEqualWidth(10, 10, 3); err == nil {
		t.Fatal("max==min: want error")
	}
}

func TestApply(t *testing.T) {
	s, err := NewBreakpoints([]float64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	alpha := alphabet.Letters(3)
	ser, err := s.Apply([]float64{5, 15, 25, 7}, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if ser.String() != "abca" {
		t.Fatalf("Apply = %q, want abca", ser.String())
	}
}

func TestApplyAlphabetMismatch(t *testing.T) {
	s, _ := NewBreakpoints([]float64{10})
	if _, err := s.Apply([]float64{1}, alphabet.Letters(5)); err == nil {
		t.Fatal("alphabet/levels mismatch: want error")
	}
}

func TestFiveLevelNames(t *testing.T) {
	if len(FiveLevelNames) != 5 || FiveLevelNames[0] != "very low" || FiveLevelNames[4] != "very high" {
		t.Fatalf("FiveLevelNames = %v", FiveLevelNames)
	}
}

func TestLevelMonotoneProperty(t *testing.T) {
	s, err := NewBreakpoints([]float64{-3, 0, 2.5, 9})
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b float64) bool {
		if a > b {
			a, b = b, a
		}
		return s.Level(a) <= s.Level(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
