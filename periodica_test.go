package periodica_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"periodica"
	"periodica/internal/dist"
	"periodica/internal/httpapi"
)

func TestMineRunningExample(t *testing.T) {
	s, err := periodica.NewSeriesFromString("abcabbabcb")
	if err != nil {
		t.Fatal(err)
	}
	res, err := mine(s, periodica.Options{Threshold: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	foundA, foundB, foundAB := false, false, false
	for _, sp := range res.Periodicities {
		if sp.Symbol == "a" && sp.Period == 3 && sp.Position == 0 {
			foundA = true
		}
		if sp.Symbol == "b" && sp.Period == 3 && sp.Position == 1 && sp.Confidence == 1 {
			foundB = true
		}
	}
	for _, pt := range res.Patterns {
		if pt.Text == "ab*" {
			foundAB = true
			if pt.Support < 0.66 || pt.Support > 0.67 {
				t.Fatalf("ab* support %v, want 2/3", pt.Support)
			}
		}
	}
	if !foundA || !foundB || !foundAB {
		t.Fatalf("missing paper results: a=%v b=%v ab=%v", foundA, foundB, foundAB)
	}
}

func TestNewSeries(t *testing.T) {
	s, err := periodica.NewSeries([]string{"high", "low", "high", "low"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	alpha := s.Alphabet()
	if len(alpha) != 2 || alpha[0] != "high" || alpha[1] != "low" {
		t.Fatalf("Alphabet = %v", alpha)
	}
	res, err := mine(s, periodica.Options{Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Periods) == 0 || res.Periods[0] != 2 {
		t.Fatalf("Periods = %v, want [2]", res.Periods)
	}
}

func TestNewSeriesEmpty(t *testing.T) {
	if _, err := periodica.NewSeries(nil); err == nil {
		t.Fatal("empty series: want error")
	}
	if _, err := periodica.NewSeriesFromString(""); err == nil {
		t.Fatal("empty string: want error")
	}
}

// TestSingleSymbolSeriesMinesNothing: with n = 1 the defaulted period range
// 1..n/2 is empty, so every entry point answers "no periodicities" — an
// empty, non-nil result — instead of a period-range error.
func TestSingleSymbolSeriesMinesNothing(t *testing.T) {
	s, err := periodica.NewSeriesFromString("a")
	if err != nil {
		t.Fatal(err)
	}
	opt := periodica.Options{Threshold: 0.5}
	coord := distCoordinator(t, dist.Config{Workers: startWorkers(t, 2)})
	srv := httptest.NewServer(httpapi.New(httpapi.Config{Logger: quietLogger()}))
	defer srv.Close()
	empty := func(res *periodica.Result) bool {
		return res != nil && len(res.Periods)+len(res.Periodicities)+len(res.SingleSymbolPatterns)+len(res.Patterns) == 0
	}
	cases := []struct {
		name string
		run  func() (bool, error)
	}{
		{"Mine", func() (bool, error) {
			res, err := mine(s, opt)
			return empty(res), err
		}},
		{"CandidatePeriods", func() (bool, error) {
			periods, err := candidatePeriods(s, opt.Threshold, 0)
			return periods != nil && len(periods) == 0, err
		}},
		{"Stream.Finish", func() (bool, error) {
			st, err := periodica.NewStream("a")
			if err != nil {
				return false, err
			}
			if err := st.Append("a"); err != nil {
				return false, err
			}
			res, err := st.FinishQueryContext(context.Background(), periodica.QueryFromOptions(opt))
			return empty(res), err
		}},
		{"dist.Mine", func() (bool, error) {
			res, err := coord.Mine(context.Background(), s, opt)
			return empty(res), err
		}},
		{"HTTP /v1/mine", func() (bool, error) {
			resp, err := http.Post(srv.URL+"/v1/mine", "application/json",
				strings.NewReader(`{"symbols":"a","threshold":0.5}`))
			if err != nil {
				return false, err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return false, fmt.Errorf("status %d, want 200", resp.StatusCode)
			}
			var res periodica.Result
			err = json.NewDecoder(resp.Body).Decode(&res)
			return empty(&res), err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ok, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Error("want an empty, non-nil result")
			}
		})
	}
}

func TestDiscretizeEqualWidth(t *testing.T) {
	s, err := periodica.DiscretizeEqualWidth([]float64{0, 5, 10, 0, 5, 10}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.String() != "abcabc" {
		t.Fatalf("discretized = %q, want abcabc", s.String())
	}
	res, err := mine(s, periodica.Options{Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Periods) == 0 || res.Periods[0] != 3 {
		t.Fatalf("Periods = %v, want leading 3", res.Periods)
	}
}

func TestDiscretizeEqualWidthErrors(t *testing.T) {
	if _, err := periodica.DiscretizeEqualWidth(nil, 3); err == nil {
		t.Fatal("no values: want error")
	}
	if _, err := periodica.DiscretizeEqualWidth([]float64{1, 1}, 3); err == nil {
		t.Fatal("constant values: want error")
	}
}

func TestDiscretizeBreakpoints(t *testing.T) {
	s, err := periodica.DiscretizeBreakpoints([]float64{100, 300, 700}, []float64{200, 500})
	if err != nil {
		t.Fatal(err)
	}
	if s.String() != "abc" {
		t.Fatalf("discretized = %q, want abc", s.String())
	}
	if _, err := periodica.DiscretizeBreakpoints(nil, []float64{1}); err == nil {
		t.Fatal("no values: want error")
	}
	if _, err := periodica.DiscretizeBreakpoints([]float64{1}, nil); err == nil {
		t.Fatal("no breakpoints: want error")
	}
}

func TestCandidatePeriods(t *testing.T) {
	s, err := periodica.NewSeriesFromString(strings.Repeat("abcd", 32))
	if err != nil {
		t.Fatal(err)
	}
	periods, err := candidatePeriods(s, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	has4 := false
	for _, p := range periods {
		if p == 4 {
			has4 = true
		}
	}
	if !has4 {
		t.Fatalf("period 4 missing from candidates %v", periods)
	}
	if _, err := candidatePeriods(s, 0, 0); err == nil {
		t.Fatal("threshold 0: want error")
	}
}

func TestPeriodConfidence(t *testing.T) {
	s, err := periodica.NewSeriesFromString(strings.Repeat("xyz", 20))
	if err != nil {
		t.Fatal(err)
	}
	if got := periodica.PeriodConfidence(s, 3); got != 1 {
		t.Fatalf("confidence(3) = %v, want 1", got)
	}
	if got := periodica.PeriodConfidence(s, 2); got == 1 {
		t.Fatal("confidence(2) = 1 on period-3 data with distinct symbols")
	}
}

func TestStream(t *testing.T) {
	st, err := periodica.NewStream("a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := st.Append(string(rune('a' + i%3))); err != nil {
			t.Fatal(err)
		}
	}
	if st.Len() != 30 {
		t.Fatalf("Len = %d", st.Len())
	}
	res, err := st.FinishQueryContext(context.Background(), periodica.QueryFromOptions(periodica.Options{Threshold: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Periods) == 0 || res.Periods[0] != 3 {
		t.Fatalf("Periods = %v, want leading 3", res.Periods)
	}
	if err := st.Append("z"); err == nil {
		t.Fatal("unknown symbol: want error")
	}
}

func TestNewStreamInvalidAlphabet(t *testing.T) {
	if _, err := periodica.NewStream("a", "a"); err == nil {
		t.Fatal("duplicate alphabet symbols: want error")
	}
}

func TestEnginesExposedAgree(t *testing.T) {
	s, err := periodica.NewSeriesFromString(strings.Repeat("aabcb", 40))
	if err != nil {
		t.Fatal(err)
	}
	var results []*periodica.Result
	for _, eng := range []periodica.Engine{periodica.EngineAuto, periodica.EngineNaive, periodica.EngineBitset, periodica.EngineFFT} {
		res, err := mine(s, periodica.Options{Threshold: 0.8, Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	for i := 1; i < len(results); i++ {
		if len(results[i].Periodicities) != len(results[0].Periodicities) {
			t.Fatalf("engine %d disagrees on periodicity count", i)
		}
	}
}

func TestSingleSymbolPatternsExposed(t *testing.T) {
	s, err := periodica.NewSeriesFromString("abcabbabcb")
	if err != nil {
		t.Fatal(err)
	}
	res, err := mine(s, periodica.Options{Threshold: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SingleSymbolPatterns) != len(res.Periodicities) {
		t.Fatal("one single-symbol pattern per periodicity expected")
	}
	found := false
	for _, pt := range res.SingleSymbolPatterns {
		if pt.Text == "*b*" && pt.Support == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("pattern *b* with support 1 missing")
	}
}

func TestMineInvalidOptions(t *testing.T) {
	s, err := periodica.NewSeriesFromString("abcabc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mine(s, periodica.Options{Threshold: 0}); err == nil {
		t.Fatal("threshold 0: want error")
	}
}
