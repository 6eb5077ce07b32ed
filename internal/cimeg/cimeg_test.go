package cimeg

import (
	"context"
	"testing"

	"periodica/internal/core"
)

func TestGenerateLength(t *testing.T) {
	if got := len(Generate(Config{Days: 100, Seed: 1})); got != 100 {
		t.Fatalf("len = %d, want 100", got)
	}
	if got := len(Generate(Config{Seed: 1})); got != 365 {
		t.Fatalf("default len = %d, want 365", got)
	}
}

func TestDiscretizeLevels(t *testing.T) {
	s := Discretize([]float64{3000, 7000, 9000, 11000, 20000})
	if s.String() != "abcde" {
		t.Fatalf("levels = %q, want abcde", s.String())
	}
}

func TestSeriesDetectsWeeklyPeriod(t *testing.T) {
	// Table 1: period 7 detected at thresholds ≤ 60%.
	s := Series(Config{Days: 365, Seed: 2})
	if conf := core.PeriodConfidence(s, 7); conf < 0.6 {
		t.Fatalf("confidence at period 7 = %v, want ≥ 0.6", conf)
	}
}

func TestWeeklyMultiplesAlsoDetected(t *testing.T) {
	s := Series(Config{Days: 365, Seed: 3})
	for _, p := range []int{14, 21} {
		if conf := core.PeriodConfidence(s, p); conf < 0.4 {
			t.Fatalf("confidence at period %d = %v, want ≥ 0.4", p, conf)
		}
	}
}

func TestAwayDayPatternAtModerateThreshold(t *testing.T) {
	// Table 2's CIMEG row: (a,3) — very low consumption on the 4th day of
	// the week — appears at threshold 50%.
	s := Series(Config{Days: 365, Seed: 4})
	res, err := core.MineContext(context.Background(), s, core.Options{Threshold: 0.4, MinPeriod: 7, MaxPeriod: 7, MaxPatternPeriod: -1})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Alphabet().Index("a")
	found := false
	for _, sp := range res.Periodicities {
		if sp.Symbol == a && sp.Position == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("pattern (a,3) not detected at period 7: %+v", res.Periodicities)
	}
}

func TestNoiseKeepsWeeklyBelowPerfect(t *testing.T) {
	s := Series(Config{Days: 365, Seed: 5})
	if conf := core.PeriodConfidence(s, 7); conf >= 1 {
		t.Fatalf("confidence at period 7 = %v, want < 1 under noise", conf)
	}
}

func TestSeasonalDriftChangesValues(t *testing.T) {
	with := Generate(Config{Days: 365, Seed: 6, Seasonal: true})
	without := Generate(Config{Days: 365, Seed: 6, Seasonal: false})
	diff := 0
	for i := range with {
		if with[i] != without[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seasonal component changed nothing")
	}
}

func TestCustomers(t *testing.T) {
	customers := Customers(4, Config{Days: 60, Seed: 10})
	if len(customers) != 4 {
		t.Fatalf("customer count %d", len(customers))
	}
	if customers[0].String() == customers[3].String() {
		t.Fatal("customers share a noise realization")
	}
	for _, s := range customers {
		if s.Len() != 60 {
			t.Fatalf("customer length %d", s.Len())
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Days: 50, Seed: 7})
	b := Generate(Config{Days: 50, Seed: 7})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different traces")
		}
	}
}

func TestValuesNonNegative(t *testing.T) {
	for _, v := range Generate(Config{Days: 365, Seed: 8, NoiseSD: 5000}) {
		if v < 0 {
			t.Fatalf("negative consumption %v", v)
		}
	}
}
