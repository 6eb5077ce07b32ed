package periodica_test

// Query-language parity: a compiled query is just another spelling of an
// Options struct, so every legacy field must map to a pinned query clause
// (the golden table below) and a compiled query must mine byte-identically
// to the lifted Options through every source and engine. CI runs
// the parity matrix with a PERIODICA_QUERY-driven leg on top of these.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"periodica"
)

// TestQueryGoldenLegacyFields pins the two-way mapping between every legacy
// Options field and its query-clause spelling: lifting the struct renders
// the canonical string, and compiling that string recovers the identical
// struct. A new Options field that reaches this table without a clause
// spelling fails the lift (it would be silently dropped by the DSL).
func TestQueryGoldenLegacyFields(t *testing.T) {
	cases := []struct {
		name string
		opt  periodica.Options
		want string
	}{
		{"threshold", periodica.Options{Threshold: 0.8}, "conf >= 0.8"},
		{"threshold fraction", periodica.Options{Threshold: 2.0 / 3.0}, "conf >= 0.6666666666666666"},
		{"min period", periodica.Options{Threshold: 0.5, MinPeriod: 4}, "conf >= 0.5 and period >= 4"},
		{"max period", periodica.Options{Threshold: 0.5, MaxPeriod: 64}, "conf >= 0.5 and period <= 64"},
		{"period range", periodica.Options{Threshold: 0.5, MinPeriod: 2, MaxPeriod: 512}, "conf >= 0.5 and period in 2..512"},
		{"exact period", periodica.Options{Threshold: 0.5, MinPeriod: 7, MaxPeriod: 7}, "conf >= 0.5 and period = 7"},
		{"min pairs", periodica.Options{Threshold: 0.5, MinPairs: 3}, "conf >= 0.5 and pairs >= 3"},
		{"maximal only", periodica.Options{Threshold: 0.5, MaximalOnly: true}, "conf >= 0.5 and maximal only"},
		{"pattern period cap", periodica.Options{Threshold: 0.5, MaxPatternPeriod: 21}, "conf >= 0.5 and pattern period <= 21"},
		{"pattern mining off", periodica.Options{Threshold: 0.5, MaxPatternPeriod: -1}, "conf >= 0.5 and pattern period off"},
		{"patterns cap", periodica.Options{Threshold: 0.5, MaxPatterns: 100}, "conf >= 0.5 and patterns <= 100"},
		{"engine naive", periodica.Options{Threshold: 0.5, Engine: periodica.EngineNaive}, "conf >= 0.5 and engine naive"},
		{"engine bitset", periodica.Options{Threshold: 0.5, Engine: periodica.EngineBitset}, "conf >= 0.5 and engine bitset"},
		{"engine fft", periodica.Options{Threshold: 0.5, Engine: periodica.EngineFFT}, "conf >= 0.5 and engine fft"},
		{
			"every field",
			periodica.Options{
				Threshold: 0.75, MinPeriod: 2, MaxPeriod: 256, Engine: periodica.EngineBitset,
				MaxPatternPeriod: 32, MaxPatterns: 500, MaximalOnly: true, MinPairs: 2,
			},
			"conf >= 0.75 and period in 2..256 and pairs >= 2 and maximal only and pattern period <= 32 and patterns <= 500 and engine bitset",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := periodica.QueryFromOptions(tc.opt).String(); got != tc.want {
				t.Errorf("QueryFromOptions(%+v).String() = %q, want %q", tc.opt, got, tc.want)
			}
			q, err := periodica.CompileQuery(tc.want)
			if err != nil {
				t.Fatalf("CompileQuery(%q): %v", tc.want, err)
			}
			if got := q.Options(); !reflect.DeepEqual(got, tc.opt) {
				t.Errorf("CompileQuery(%q).Options() = %+v, want %+v", tc.want, got, tc.opt)
			}
		})
	}
}

// queryFor lifts opt into a compiled query the long way round — render,
// then recompile — so the test also covers the canonical string, not just
// the in-memory spec.
func queryFor(t *testing.T, opt periodica.Options) *periodica.Query {
	t.Helper()
	q, err := periodica.CompileQuery(periodica.QueryFromOptions(opt).String())
	if err != nil {
		t.Fatalf("recompiling lifted options %+v: %v", opt, err)
	}
	return q
}

// TestParityQueryDriven: for every engine, a query compiled from the
// canonical string of lifted Options must mine byte-identically to the
// lifted Options themselves, through every source. The query carries no
// shaping clauses, so Shape must be an exact identity — any stray
// reordering or filtering in the query path shows up here. Candidate
// detection is checked against the out-of-core detector over the same
// series written to disk.
func TestParityQueryDriven(t *testing.T) {
	for name, eng := range parityEngines(t) {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			symbols := paritySymbols(605)
			opt := periodica.Options{Threshold: 0.6, Engine: eng, MinPairs: 3, MaxPatternPeriod: 21}
			q := queryFor(t, opt)

			s, err := periodica.NewSeries(symbols)
			if err != nil {
				t.Fatal(err)
			}
			want, err := mine(s, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Periodicities) == 0 {
				t.Fatal("parity fixture detected nothing; the test is vacuous")
			}

			check := func(path string, res *periodica.Result, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				if !reflect.DeepEqual(want, res) {
					t.Errorf("%s result differs from the mine of the lifted Options", path)
				}
			}
			res, err := periodica.MineQueryContext(ctx, s, q)
			check("MineQueryContext", res, err)
			res, err = periodica.MineQueryContext(ctx, s, withWorkers(t, q, 1))
			check("workers 1", res, err)
			res, err = periodica.MineQueryContext(ctx, s, withWorkers(t, q, 4))
			check("workers 4", res, err)

			st, inc := filledSources(t, symbols, []string{"a", "b", "c"})
			res, err = st.FinishQueryContext(ctx, q)
			check("Stream.FinishQueryContext", res, err)
			res, err = inc.MineQueryContext(ctx, q)
			check("Incremental.MineQueryContext", res, err)

			path := filepath.Join(t.TempDir(), "parity.ser")
			if err := s.WriteFile(path); err != nil {
				t.Fatal(err)
			}
			wantPeriods, err := periodica.CandidatePeriodsFile(path, opt.Threshold, opt.MaxPeriod)
			if err != nil {
				t.Fatal(err)
			}
			gotPeriods, err := periodica.CandidatePeriodsQueryContext(ctx, s, q)
			if err != nil {
				t.Fatalf("CandidatePeriodsQueryContext: %v", err)
			}
			if !reflect.DeepEqual(wantPeriods, gotPeriods) {
				t.Errorf("CandidatePeriodsQueryContext = %v, want %v", gotPeriods, wantPeriods)
			}
		})
	}
}

// TestQueryShaping covers the clauses the struct API cannot spell: symbol
// filtering and limits act after mining, and their composition with the
// mining clauses must be deterministic.
func TestQueryShaping(t *testing.T) {
	s, err := periodica.NewSeries(paritySymbols(605))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base, err := periodica.MineQueryContext(ctx, s, mustCompile(t, "conf >= 0.6 and pairs >= 3 and pattern period <= 21"))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Periodicities) == 0 {
		t.Fatal("shaping fixture detected nothing; the test is vacuous")
	}

	shaped, err := periodica.MineQueryContext(ctx, s, mustCompile(t, "conf >= 0.6 and pairs >= 3 and pattern period <= 21 and symbol in {a}"))
	if err != nil {
		t.Fatal(err)
	}
	if len(shaped.Periodicities) == 0 || len(shaped.Periodicities) >= len(base.Periodicities) {
		t.Fatalf("symbol filter kept %d of %d periodicities; expected a strict, non-empty subset",
			len(shaped.Periodicities), len(base.Periodicities))
	}
	for _, p := range shaped.Periodicities {
		if p.Symbol != "a" {
			t.Fatalf("symbol filter leaked periodicity for %q", p.Symbol)
		}
	}

	limited, err := periodica.MineQueryContext(ctx, s, mustCompile(t, "conf >= 0.6 and pairs >= 3 and pattern period <= 21 and limit 3 by conf"))
	if err != nil {
		t.Fatal(err)
	}
	if len(limited.Periodicities) != 3 {
		t.Fatalf("limit 3 by conf kept %d periodicities", len(limited.Periodicities))
	}
	worst := limited.Periodicities[0].Confidence
	for _, p := range limited.Periodicities {
		if p.Confidence < worst {
			worst = p.Confidence
		}
	}
	dropped := 0
	for _, p := range base.Periodicities {
		if p.Confidence > worst {
			dropped++
		}
	}
	if dropped > len(limited.Periodicities) {
		t.Errorf("limit by conf dropped a periodicity more confident than one it kept")
	}
}

// TestParityEnvQuery is the PERIODICA_QUERY CI leg: the environment names
// an arbitrary query (shaping clauses included), and the query-driven mine
// of it must equal the mine of its Options followed by an explicit Shape —
// serial and at four workers. Without the variable a representative shaped
// query runs, so the test is never vacuous locally.
func TestParityEnvQuery(t *testing.T) {
	src := os.Getenv("PERIODICA_QUERY")
	if src == "" {
		src = "conf >= 0.6 and pairs >= 3 and pattern period <= 21 and limit 5 by conf"
	}
	q := mustCompile(t, src)
	s, err := periodica.NewSeries(paritySymbols(605))
	if err != nil {
		t.Fatal(err)
	}
	base, err := mine(s, q.Options())
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.Shape(s, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got, err := periodica.MineQueryContext(context.Background(), s, withWorkers(t, q, workers))
		if err != nil {
			t.Fatalf("MineQueryContext(%q) at %d workers: %v", src, workers, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("MineQueryContext(%q) at %d workers differs from the mine of its Options + Shape", src, workers)
		}
	}
}

func mustCompile(t *testing.T, src string) *periodica.Query {
	t.Helper()
	q, err := periodica.CompileQuery(src)
	if err != nil {
		t.Fatalf("CompileQuery(%q): %v", src, err)
	}
	return q
}

// TestQueryInvalidIsErrInvalidInput: compile errors surface as
// ErrInvalidInput so callers (and the HTTP 400 mapping) can classify them
// without string matching.
func TestQueryInvalidIsErrInvalidInput(t *testing.T) {
	for _, src := range []string{"", "conf >=", "conf >= 2", "period in 9..2", "bogus 1"} {
		if _, err := periodica.CompileQuery(src); err == nil {
			t.Errorf("CompileQuery(%q) succeeded, want error", src)
		} else if !errors.Is(err, periodica.ErrInvalidInput) {
			t.Errorf("CompileQuery(%q) error %v is not ErrInvalidInput", src, err)
		}
	}
}
