package periodica_test

// Cross-path parity: every mining entry point — batch, streaming,
// incremental, at any worker count — runs the same session pipeline, so the
// same symbol sequence must yield byte-identical Results through every
// path, for every engine — and under cancellation every path must return
// context.Canceled with no partial result. CI runs these under
// `go test -run Parity -race` across PERIODICA_ENGINE={naive,bitset,fft}.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"periodica"
)

// parityEngines returns the engines to exercise: the one named by the
// PERIODICA_ENGINE environment variable (the CI matrix), or all of them.
func parityEngines(t *testing.T) map[string]periodica.Engine {
	t.Helper()
	all := map[string]periodica.Engine{
		"naive":  periodica.EngineNaive,
		"bitset": periodica.EngineBitset,
		"fft":    periodica.EngineFFT,
	}
	name := os.Getenv("PERIODICA_ENGINE")
	if name == "" {
		return all
	}
	eng, ok := all[name]
	if !ok {
		t.Fatalf("PERIODICA_ENGINE=%q is not naive, bitset, or fft", name)
	}
	return map[string]periodica.Engine{name: eng}
}

// paritySymbols builds a noisy periodic sequence over a three-symbol
// alphabet: period 7 with a fixed motif, 20% replacement noise.
func paritySymbols(n int) []string {
	motif := []string{"a", "b", "a", "c", "b", "b", "c"}
	alpha := []string{"a", "b", "c"}
	rng := rand.New(rand.NewSource(11))
	out := make([]string, n)
	for i := range out {
		out[i] = motif[i%len(motif)]
		if rng.Intn(5) == 0 {
			out[i] = alpha[rng.Intn(len(alpha))]
		}
	}
	return out
}

// mine is the serial, uncancelled batch mine of opt, the reference most
// tests compare against.
func mine(s *periodica.Series, opt periodica.Options) (*periodica.Result, error) {
	return periodica.MineQueryContext(context.Background(), s, periodica.QueryFromOptions(opt))
}

// candidatePeriods is the uncancelled candidate detection at threshold and
// maxPeriod (0 = n/2).
func candidatePeriods(s *periodica.Series, threshold float64, maxPeriod int) ([]int, error) {
	q := periodica.QueryFromOptions(periodica.Options{Threshold: threshold, MaxPeriod: maxPeriod})
	return periodica.CandidatePeriodsQueryContext(context.Background(), s, q)
}

// withWorkers returns q with its "workers" clause set to n.
func withWorkers(t *testing.T, q *periodica.Query, n int) *periodica.Query {
	t.Helper()
	src := q.String() + fmt.Sprintf(" and workers %d", n)
	if w := q.Workers(); w != 0 {
		src = strings.Replace(q.String(), fmt.Sprintf("workers %d", w), fmt.Sprintf("workers %d", n), 1)
	}
	wq, err := periodica.CompileQuery(src)
	if err != nil {
		t.Fatalf("CompileQuery(%q): %v", src, err)
	}
	return wq
}

// filledSources returns a Stream and an Incremental that have ingested
// symbols over alpha.
func filledSources(t *testing.T, symbols, alpha []string) (*periodica.Stream, *periodica.Incremental) {
	t.Helper()
	st, err := periodica.NewStream(alpha...)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := periodica.NewIncremental(len(symbols)/2, alpha...)
	if err != nil {
		t.Fatal(err)
	}
	for _, sym := range symbols {
		if err := st.Append(sym); err != nil {
			t.Fatal(err)
		}
		if err := inc.Append(sym); err != nil {
			t.Fatal(err)
		}
	}
	return st, inc
}

// mineAllPaths runs the same symbols and query through every source —
// batch at one and four workers as well as on the default scheduler,
// stream, incremental — and returns the per-path results, keyed by path
// name.
func mineAllPaths(t *testing.T, symbols []string, q *periodica.Query) map[string]*periodica.Result {
	t.Helper()
	ctx := context.Background()
	s, err := periodica.NewSeries(symbols)
	if err != nil {
		t.Fatal(err)
	}
	st, inc := filledSources(t, symbols, s.Alphabet())
	out := map[string]*periodica.Result{}
	for path, run := range map[string]func() (*periodica.Result, error){
		"MineQueryContext":             func() (*periodica.Result, error) { return periodica.MineQueryContext(ctx, s, q) },
		"workers 1":                    func() (*periodica.Result, error) { return periodica.MineQueryContext(ctx, s, withWorkers(t, q, 1)) },
		"workers 4":                    func() (*periodica.Result, error) { return periodica.MineQueryContext(ctx, s, withWorkers(t, q, 4)) },
		"Stream.FinishQueryContext":    func() (*periodica.Result, error) { return st.FinishQueryContext(ctx, q) },
		"Incremental.MineQueryContext": func() (*periodica.Result, error) { return inc.MineQueryContext(ctx, q) },
	} {
		if out[path], err = run(); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	return out
}

// boundarySymbols is a 202-symbol bcde cycle with a at positions 1, 3, …, 15:
// at period 2, a holds at position 1 for exactly 7 of 100 pairs, so ψ = 0.07
// lands exactly on an observed confidence.
func boundarySymbols() []string {
	out := make([]string, 202)
	for i := range out {
		out[i] = string("bcde"[i%4])
		if i%2 == 1 && i <= 15 {
			out[i] = "a"
		}
	}
	return out
}

func TestParityAcrossPaths(t *testing.T) {
	cases := []struct {
		name    string
		symbols []string
		opt     periodica.Options
	}{
		// Below and above the auto FFT crossover.
		{"n=605", paritySymbols(605), periodica.Options{Threshold: 0.6, MinPairs: 3, MaxPatternPeriod: 21}},
		{"n=5000", paritySymbols(5000), periodica.Options{Threshold: 0.6, MinPairs: 3, MaxPatternPeriod: 21}},
		// The pruned engines must keep a pair whose confidence equals ψ.
		{"threshold-boundary", boundarySymbols(), periodica.Options{Threshold: 0.07, MinPeriod: 2, MaxPeriod: 2}},
	}
	for _, tc := range cases {
		for name, eng := range parityEngines(t) {
			if eng == periodica.EngineNaive && len(tc.symbols) > 1000 {
				// Keep the quadratic reference to the small input; the
				// engines were already cross-checked against it there.
				continue
			}
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				opt := tc.opt
				opt.Engine = eng
				results := mineAllPaths(t, tc.symbols, periodica.QueryFromOptions(opt))
				base := results["MineQueryContext"]
				if len(tc.symbols) <= 1000 {
					// Small inputs also pin every engine to the naive
					// reference, which applies no prune.
					s, err := periodica.NewSeries(tc.symbols)
					if err != nil {
						t.Fatal(err)
					}
					ref := opt
					ref.Engine = periodica.EngineNaive
					want, err := mine(s, ref)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(want, base) {
						t.Errorf("%s engine differs from the naive reference", name)
					}
				}
				if len(base.Periodicities) == 0 {
					t.Fatal("parity fixture detected nothing; the test is vacuous")
				}
				for path, res := range results {
					if !reflect.DeepEqual(base, res) {
						t.Errorf("%s result differs from MineQueryContext", path)
					}
				}
			})
		}
	}
}

func TestParityAutoEngine(t *testing.T) {
	// EngineAuto must resolve identically on every path (one resolver),
	// including the worker-sharded ones.
	q := periodica.QueryFromOptions(periodica.Options{Threshold: 0.6, MinPairs: 3, MaxPatternPeriod: 21})
	results := mineAllPaths(t, paritySymbols(5000), q)
	base := results["MineQueryContext"]
	for path, res := range results {
		if !reflect.DeepEqual(base, res) {
			t.Errorf("%s result differs from MineQueryContext under EngineAuto", path)
		}
	}
}

// countdownCtx is a context whose Err starts returning context.Canceled
// after a fixed number of polls — deterministic mid-run cancellation,
// independent of timing.
type countdownCtx struct {
	context.Context
	mu        sync.Mutex
	remaining int
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

func TestParityCancellation(t *testing.T) {
	symbols := paritySymbols(5000)
	for name, eng := range parityEngines(t) {
		t.Run(name, func(t *testing.T) {
			q := periodica.QueryFromOptions(periodica.Options{Threshold: 0.6, Engine: eng, MinPairs: 3, MaxPatternPeriod: 21})

			cancelled, cancel := context.WithCancel(context.Background())
			cancel()

			// Pre-cancelled and mid-run cancellation: every path must
			// return context.Canceled and no partial result.
			for _, polls := range []int{0, 25} {
				s, err := periodica.NewSeries(symbols)
				if err != nil {
					t.Fatal(err)
				}
				st, inc := filledSources(t, symbols, []string{"a", "b", "c"})
				ctxFor := func() context.Context {
					if polls == 0 {
						return cancelled
					}
					return &countdownCtx{Context: context.Background(), remaining: polls}
				}
				type attempt struct {
					path string
					res  *periodica.Result
					err  error
				}
				var attempts []attempt
				res, err := periodica.MineQueryContext(ctxFor(), s, q)
				attempts = append(attempts, attempt{"MineQueryContext", res, err})
				res, err = periodica.MineQueryContext(ctxFor(), s, withWorkers(t, q, 4))
				attempts = append(attempts, attempt{"workers 4", res, err})
				res, err = st.FinishQueryContext(ctxFor(), q)
				attempts = append(attempts, attempt{"Stream.FinishQueryContext", res, err})
				res, err = inc.MineQueryContext(ctxFor(), q)
				attempts = append(attempts, attempt{"Incremental.MineQueryContext", res, err})
				for _, a := range attempts {
					if !errors.Is(a.err, context.Canceled) {
						t.Errorf("polls=%d %s error = %v, want context.Canceled", polls, a.path, a.err)
					}
					if a.res != nil {
						t.Errorf("polls=%d %s returned a partial result alongside cancellation", polls, a.path)
					}
					if errors.Is(a.err, periodica.ErrInvalidInput) {
						t.Errorf("polls=%d %s cancellation must not look like invalid input", polls, a.path)
					}
				}
			}
		})
	}
}
