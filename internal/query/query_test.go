package query

import (
	"encoding/json"
	"strings"
	"testing"

	"periodica/internal/obs"
)

func cacheHits() int64 { return obs.Query().CacheHits.Value() }

func mustCompile(t *testing.T, src string) Spec {
	t.Helper()
	sp, err := Compile(src)
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	return sp
}

func TestCompileFullQuery(t *testing.T) {
	sp := mustCompile(t, `conf >= 0.8 and period in 2..512 and pairs >= 3 and `+
		`symbol in {b, a} and maximal only and pattern period <= 64 and patterns <= 500 and `+
		`engine fft and limit 100 by conf and levels 5 and discretize sax and workers 8`)
	want := Spec{
		Threshold: 0.8, MinPeriod: 2, MaxPeriod: 512, MinPairs: 3,
		Symbols: []string{"a", "b"}, MaximalOnly: true,
		MaxPatternPeriod: 64, MaxPatterns: 500, Engine: EngineFFT,
		Limit: 100, LimitBy: LimitByConf, Levels: 5, Discretize: DiscretizeSAX,
		Workers: 8,
	}
	if !sp.Equal(&want) {
		t.Fatalf("compiled spec = %+v, want %+v", sp, want)
	}
}

func TestCompileForms(t *testing.T) {
	cases := []struct {
		src  string
		want Spec
	}{
		{"conf >= 0.5", Spec{Threshold: 0.5}},
		{"conf >= 1", Spec{Threshold: 1}},
		{"confidence >= 0.25", Spec{Threshold: 0.25}},
		{"conf >= 0.5 and period >= 7", Spec{Threshold: 0.5, MinPeriod: 7}},
		{"conf >= 0.5 and period <= 100", Spec{Threshold: 0.5, MaxPeriod: 100}},
		{"conf >= 0.5 and period = 24", Spec{Threshold: 0.5, MinPeriod: 24, MaxPeriod: 24}},
		{"conf >= 0.5 and pattern period off", Spec{Threshold: 0.5, MaxPatternPeriod: -1}},
		{`conf >= 0.5 and symbol in {"a b", c}`, Spec{Threshold: 0.5, Symbols: []string{"a b", "c"}}},
		{"conf >= 0.5 and symbols in {x}", Spec{Threshold: 0.5, Symbols: []string{"x"}}},
		{"conf >= 0.5 and limit 10 by confidence", Spec{Threshold: 0.5, Limit: 10, LimitBy: LimitByConf}},
		{"conf >= 0.5 and limit 10 by support", Spec{Threshold: 0.5, Limit: 10, LimitBy: LimitBySupport}},
		{"conf>=0.5 and period in 2..4", Spec{Threshold: 0.5, MinPeriod: 2, MaxPeriod: 4}},
	}
	for _, tc := range cases {
		sp, err := Compile(tc.src)
		if err != nil {
			t.Errorf("Compile(%q): %v", tc.src, err)
			continue
		}
		if !sp.Equal(&tc.want) {
			t.Errorf("Compile(%q) = %+v, want %+v", tc.src, sp, tc.want)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		src     string
		wantSub string
	}{
		{"", "expected a clause"},
		{"period in 2..4", "missing conf clause"},
		{"conf >= 0", "outside (0,1]"},
		{"conf >= 1.5", "outside (0,1]"},
		{"conf >= 0.5 and conf >= 0.6", "duplicate conf clause"},
		{"conf >= 0.5 and period in 9..3", "empty period range"},
		{"conf >= 0.5 and period in 2.5..7", "must be an integer"},
		{"conf >= 0.5 and period in 0..7", "at least 1"},
		{"conf >= 0.5 and engine gpu", "unknown engine"},
		{"conf >= 0.5 and limit 10 by size", "unknown limit ordering"},
		{"conf >= 0.5 and limit 0 by conf", "at least 1"},
		{"conf >= 0.5 and symbol in {}", "empty symbol set"},
		{"conf >= 0.5 and symbol in {a, a}", "duplicate symbol"},
		{"conf >= 0.5 and levels 1", "levels"},
		{"conf >= 0.5 and levels 99", "levels"},
		{"conf >= 0.5 and discretize zscore", "unknown discretization"},
		{"conf >= 0.5 and frobnicate 3", "unknown clause"},
		{"conf >= 0.5 extra", `expected "and"`},
		{"conf <= 0.5", `conf takes ">="`},
		{"conf >= 0.5 and maximal", `expected "only"`},
		{`conf >= 0.5 and symbol in {"unterminated`, "unterminated quoted symbol"},
		{"conf >= 0.5 and period in 2..", "expected a number"},
		{"conf >= 0.5 and workers 0", "at least 1"},
		{"conf >= 0.5 and pairs >= 99999999999999999999", "out of range"},
	}
	for _, tc := range cases {
		_, err := Compile(tc.src)
		if err == nil {
			t.Errorf("Compile(%q): expected error containing %q, got nil", tc.src, tc.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("Compile(%q) error = %q, want substring %q", tc.src, err, tc.wantSub)
		}
	}
}

// TestRenderFixedPoint pins the canonical-form contract: compiling a
// rendered Spec yields the same Spec and the same rendering.
func TestRenderFixedPoint(t *testing.T) {
	srcs := []string{
		"conf >= 0.8",
		"conf >= 0.8 and period in 2..512 and engine fft",
		"conf >= 0.5 and period = 24 and maximal only",
		`conf >= 0.5 and symbol in {"a b", z, c} and limit 5 by period`,
		"conf >= 0.3333333333333333 and pairs >= 2 and pattern period off and workers 3",
		"confidence >= 0.25 and levels 7 and discretize width and patterns <= 17",
	}
	for _, src := range srcs {
		sp := mustCompile(t, src)
		canon := sp.Render()
		sp2, err := Compile(canon)
		if err != nil {
			t.Errorf("recompiling canonical %q: %v", canon, err)
			continue
		}
		if !sp.Equal(&sp2) {
			t.Errorf("canonical round trip of %q: %+v != %+v", src, sp, sp2)
		}
		if again := sp2.Render(); again != canon {
			t.Errorf("render not stable: %q then %q", canon, again)
		}
	}
}

func TestNormalizeDefaults(t *testing.T) {
	sp := mustCompile(t, "conf >= 0.6")
	norm, err := sp.Normalize(1000)
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Threshold: 0.6, MinPeriod: 1, MaxPeriod: 500,
		MaxPatternPeriod: 128, MaxPatterns: 10000, MinPairs: 1, Engine: EngineAuto}
	if !norm.Equal(&want) {
		t.Fatalf("Normalize = %+v, want %+v", norm, want)
	}
}

func TestNormalizeRejectsRangeBeyondSeries(t *testing.T) {
	sp := mustCompile(t, "conf >= 0.6 and period in 2..600")
	if _, err := sp.Normalize(100); err == nil ||
		!strings.Contains(err.Error(), "invalid period range [2,600] for n=100") {
		t.Fatalf("Normalize error = %v, want period-range failure", err)
	}
}

// TestNormalizeEmptyDefaultRange: with n = 1 the defaulted range 1..n/2 is
// empty and normalizes to [1,0] without error; a range that would be
// inverted, not just empty, is still rejected.
func TestNormalizeEmptyDefaultRange(t *testing.T) {
	norm, err := mustCompile(t, "conf >= 0.6").Normalize(1)
	if err != nil {
		t.Fatalf("defaulted range for n=1: %v", err)
	}
	if norm.MinPeriod != 1 || norm.MaxPeriod != 0 {
		t.Fatalf("defaulted range for n=1 = [%d,%d], want [1,0]", norm.MinPeriod, norm.MaxPeriod)
	}
	if _, err := mustCompile(t, "conf >= 0.6 and period >= 2").Normalize(1); err == nil {
		t.Fatal("period >= 2 for n=1: want a period-range error")
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []Spec{
		{},
		{Threshold: 1.5},
		{Threshold: 0.5, MinPeriod: -1},
		{Threshold: 0.5, MinPeriod: 5, MaxPeriod: 2},
		{Threshold: 0.5, Engine: "gpu"},
		{Threshold: 0.5, MinPairs: -2},
		{Threshold: 0.5, Limit: 5},
		{Threshold: 0.5, LimitBy: LimitByConf},
		{Threshold: 0.5, Limit: 5, LimitBy: "size"},
		{Threshold: 0.5, Levels: 1},
		{Threshold: 0.5, Discretize: "zscore"},
		{Threshold: 0.5, Workers: -1},
		{Threshold: 0.5, Symbols: []string{"b", "a"}},
		{Threshold: 0.5, Symbols: []string{"a", "a"}},
		{Threshold: 0.5, Symbols: []string{""}},
	}
	for _, sp := range cases {
		if err := sp.Validate(); err == nil {
			t.Errorf("Validate(%+v): expected error", sp)
		}
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	sp := mustCompile(t, "conf >= 0.8 and period in 2..64 and symbol in {a, b} and limit 3 by conf")
	data, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !sp.Equal(&back) {
		t.Fatalf("JSON round trip: %+v != %+v", sp, back)
	}
}

func TestCompileCache(t *testing.T) {
	src := "conf >= 0.123456 and period in 3..33"
	hits0 := cacheHits()
	first := mustCompile(t, src)
	second := mustCompile(t, src)
	if !first.Equal(&second) {
		t.Fatal("cached compile differs from fresh compile")
	}
	if got := cacheHits(); got <= hits0 {
		t.Fatalf("expected a cache hit on recompile; hits %d -> %d", hits0, got)
	}
	// Mutating the returned value must not poison the cache.
	second.Threshold = 0.999
	third := mustCompile(t, src)
	if third.Threshold != first.Threshold {
		t.Fatal("cache returned a mutated spec")
	}
}

func TestNormalizeSymbols(t *testing.T) {
	got := NormalizeSymbols([]string{"c", "a", "c", "b", "a"})
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("NormalizeSymbols = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NormalizeSymbols = %v, want %v", got, want)
		}
	}
	if NormalizeSymbols(nil) != nil {
		t.Fatal("NormalizeSymbols(nil) should be nil")
	}
}
