package walmart

import (
	"context"
	"testing"

	"periodica/internal/core"
)

func TestGenerateLength(t *testing.T) {
	values := Generate(Config{Months: 2, Seed: 1})
	if len(values) != 2*30*24 {
		t.Fatalf("len = %d, want %d", len(values), 2*30*24)
	}
}

func TestOvernightHoursAreZeroOnRegularDays(t *testing.T) {
	values := Generate(Config{Months: 1, Seed: 1, SpecialDayProb: -1})
	for day := 0; day < 30; day++ {
		for _, hour := range []int{0, 3, 5, 23} {
			if v := values[day*24+hour]; v != 0 {
				t.Fatalf("day %d hour %d = %v, want 0 (store closed)", day, hour, v)
			}
		}
	}
}

func TestSpecialDaysAddOvernightTraffic(t *testing.T) {
	values := Generate(Config{Months: 12, Seed: 2, SpecialDayProb: 0.5})
	nonzero := 0
	for day := 0; day < 360; day++ {
		if values[day*24] > 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("no special days at probability 0.5")
	}
}

func TestDiscretizeLevels(t *testing.T) {
	s := Discretize([]float64{0, 100, 250, 450, 900})
	if s.String() != "abcde" {
		t.Fatalf("levels = %q, want abcde", s.String())
	}
}

func TestSeriesDetectsDailyPeriod(t *testing.T) {
	// Table 1: period 24 must be detected at thresholds ≤ 70%.
	s := Series(Config{Months: 3, Seed: 3})
	if conf := core.PeriodConfidence(s, 24); conf < 0.7 {
		t.Fatalf("confidence at period 24 = %v, want ≥ 0.7", conf)
	}
}

func TestSeriesDetectsWeeklyPeriod(t *testing.T) {
	// Table 1: period 168 (24·7) appears as the weekly pattern.
	s := Series(Config{Months: 6, Seed: 4})
	if conf := core.PeriodConfidence(s, 168); conf < 0.6 {
		t.Fatalf("confidence at period 168 = %v, want ≥ 0.6", conf)
	}
}

func TestOvernightPatternBelowFullConfidence(t *testing.T) {
	// Special days keep even the most stable pattern below 100% (the paper's
	// Table 2 finds no patterns at threshold 100%)…
	s := Series(Config{Months: 15, Seed: 5})
	conf := core.PeriodConfidence(s, 24)
	if conf >= 1 {
		t.Fatalf("confidence at period 24 = %v, want < 1 with special days", conf)
	}
	// …while the overnight "very low" hours still clear 90%.
	if conf < 0.9 {
		t.Fatalf("confidence at period 24 = %v, want ≥ 0.9", conf)
	}
}

func TestQuietMorningHourIsLow(t *testing.T) {
	// The paper's Table 2 pattern (b,7): fewer than 200 transactions in the
	// 7th hour for ~80% of days.
	s := Series(Config{Months: 15, Seed: 6})
	res, err := core.MineContext(context.Background(), s, core.Options{Threshold: 0.5, MinPeriod: 24, MaxPeriod: 24, MaxPatternPeriod: -1})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.Alphabet().Index("b")
	found := false
	for _, sp := range res.Periodicities {
		if sp.Symbol == b && sp.Position == 7 {
			found = true
			if sp.Confidence < 0.5 {
				t.Fatalf("(b,7) confidence %v", sp.Confidence)
			}
		}
	}
	if !found {
		t.Fatal("pattern (b,7) not detected at period 24")
	}
}

func TestDSTShiftsSummerPhase(t *testing.T) {
	withDST := Generate(Config{Months: 12, Seed: 7, DST: true, SpecialDayProb: -1})
	without := Generate(Config{Months: 12, Seed: 7, DST: false, SpecialDayProb: -1})
	// In summer, the shifted profile moves the closed hour 23 to nonzero.
	diff := 0
	for i := range withDST {
		if (withDST[i] == 0) != (without[i] == 0) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("DST shift changed nothing")
	}
	// Winter days (before day 90) are identical in zero-structure.
	for i := 0; i < 90*24; i++ {
		if (withDST[i] == 0) != (without[i] == 0) {
			t.Fatalf("DST altered winter hour %d", i)
		}
	}
}

func TestAlphabetFiveLevels(t *testing.T) {
	if Alphabet().Size() != 5 {
		t.Fatalf("alphabet size %d, want 5", Alphabet().Size())
	}
}

func TestDSTDisplacedPeriodsDetected(t *testing.T) {
	// The paper's most striking Table-1 finding: a period of 3961 hours —
	// "5.5 months plus one hour", the daylight-saving displacement. The
	// same mechanism in the substitute produces high-confidence periods
	// congruent to ±1 (mod 24): the daily pattern re-aligns with itself one
	// hour off across the DST boundary. Without DST no such period exists.
	s := Series(Config{Months: 15, Seed: 1, DST: true})
	best, err := core.BestConfidences(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	displaced := 0
	for p := 500; p < len(best); p++ {
		if (p%24 == 1 || p%24 == 23) && best[p] >= 0.99 {
			displaced++
		}
	}
	if displaced == 0 {
		t.Fatal("no DST-displaced (≡ ±1 mod 24) periods at confidence ≥ 0.99")
	}

	plain := Series(Config{Months: 15, Seed: 1, DST: false})
	bestPlain, err := core.BestConfidences(plain, 0)
	if err != nil {
		t.Fatal(err)
	}
	plainDisplaced := 0
	for p := 500; p < len(bestPlain); p++ {
		if (p%24 == 1 || p%24 == 23) && bestPlain[p] >= 0.99 {
			plainDisplaced++
		}
	}
	if plainDisplaced >= displaced {
		t.Fatalf("DST displacement not distinguishable: %d with DST vs %d without",
			displaced, plainDisplaced)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Months: 1, Seed: 9})
	b := Generate(Config{Months: 1, Seed: 9})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different traces")
		}
	}
}
