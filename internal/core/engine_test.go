package core

import (
	"math/rand"
	"reflect"
	"testing"

	"periodica/internal/alphabet"
	"periodica/internal/conv"
	"periodica/internal/exec"
	"periodica/internal/fft"
	"periodica/internal/series"
)

// TestResolveEngineCrossover pins the EngineAuto length heuristic to its one
// home: resolveEngine. The 4096 crossover is load-bearing — callers and docs
// reference it — so a change here must be deliberate.
func TestResolveEngineCrossover(t *testing.T) {
	if autoEngineThreshold != 4096 {
		t.Fatalf("autoEngineThreshold = %d, want 4096 (update docs and this pin together)", autoEngineThreshold)
	}
	cases := []struct {
		name     string
		in       Engine
		n        int
		parallel bool
		want     Engine
	}{
		{"auto short serial", EngineAuto, autoEngineThreshold - 1, false, EngineNaive},
		{"auto at threshold serial", EngineAuto, autoEngineThreshold, false, EngineFFT},
		{"auto long serial", EngineAuto, 1 << 20, false, EngineFFT},
		{"auto short parallel", EngineAuto, autoEngineThreshold - 1, true, EngineBitset},
		{"auto at threshold parallel", EngineAuto, autoEngineThreshold, true, EngineFFT},
		{"naive serial passes through", EngineNaive, 10_000, false, EngineNaive},
		{"naive parallel substitutes bitset", EngineNaive, 100, true, EngineBitset},
		{"bitset serial passes through", EngineBitset, 100, false, EngineBitset},
		{"bitset parallel passes through", EngineBitset, 100, true, EngineBitset},
		{"fft serial passes through", EngineFFT, 100, false, EngineFFT},
		{"fft parallel passes through", EngineFFT, 100, true, EngineFFT},
	}
	for _, tc := range cases {
		if got := resolveEngine(tc.in, tc.n, tc.parallel); got != tc.want {
			t.Errorf("%s: resolveEngine(%v, %d, %v) = %v, want %v",
				tc.name, tc.in, tc.n, tc.parallel, got, tc.want)
		}
	}
}

// TestSessionScopedPlanCache: a session's detect stage takes its FFT plans
// from the process-shared cache, and its lag counts — hence the mined
// result — are identical to a detect over a fresh, isolated cache: the plan
// cache is a pure performance artifact, never a semantic one.
func TestSessionScopedPlanCache(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	idx := make([]uint16, 5000)
	for i := range idx {
		idx[i] = uint16(i % 5 % 3)
		if rng.Intn(6) == 0 {
			idx[i] = uint16(rng.Intn(3))
		}
	}
	s := series.FromIndices(alphabet.Letters(3), idx)
	opt := Options{Threshold: 0.6, Engine: EngineFFT, MinPairs: 3, MaxPatternPeriod: 20}

	ses, err := newSession(s, opt, sessionConfig{workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ses.mine()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Periodicities) == 0 {
		t.Fatal("fixture detected nothing; the test is vacuous")
	}
	isolated, err := conv.LagMatchCountsExec(s, exec.New(exec.Config{Workers: 1}), 1, fft.NewPlanCache())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ses.lag, isolated) {
		t.Error("an isolated plan cache changed the detect stage's lag counts")
	}
}

// TestEnginesAgreeAtWordBoundaries: the bitset and FFT engines resolve
// phases by walking 64-bit match words one period block at a time, so
// periods on either side of a word boundary, and the extremes 1, n/2 and
// n−1, must give the naive engine's periodicities and patterns exactly,
// including at a threshold equal to an observed confidence.
func TestEnginesAgreeAtWordBoundaries(t *testing.T) {
	const n = 1000
	for _, sigma := range []int{2, 7} {
		rng := rand.New(rand.NewSource(int64(sigma)))
		motif := make([]uint16, 65)
		for i := range motif {
			motif[i] = uint16(rng.Intn(sigma))
		}
		idx := make([]uint16, n)
		for i := range idx {
			idx[i] = motif[i%len(motif)]
			if rng.Intn(3) == 0 {
				idx[i] = uint16(rng.Intn(sigma))
			}
		}
		idx[n-1] = idx[0] // period n−1 has one pair; make it match
		s := series.FromIndices(alphabet.Letters(sigma), idx)
		for _, p := range []int{1, 63, 64, 65, 127, 128, 129, n / 2, n - 1} {
			opt := Options{MinPeriod: p, MaxPeriod: p, MaxPatternPeriod: n, MaxPatterns: 300, Engine: EngineNaive}
			opt.Threshold = 0.01
			all, err := mine(s, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(all.Periodicities) == 0 {
				t.Fatalf("σ=%d p=%d: nothing detected; the case is vacuous", sigma, p)
			}
			observed := all.Periodicities[len(all.Periodicities)/2].Confidence
			for _, psi := range []float64{0.01, observed} {
				opt.Threshold, opt.Engine = psi, EngineNaive
				want, err := mine(s, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, eng := range []Engine{EngineBitset, EngineFFT} {
					opt.Engine = eng
					got, err := mine(s, opt)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Periodicities, want.Periodicities) {
						t.Errorf("σ=%d p=%d ψ=%v: %v periodicities differ from naive", sigma, p, psi, eng)
					}
					if !reflect.DeepEqual(got.Patterns, want.Patterns) {
						t.Errorf("σ=%d p=%d ψ=%v: %v patterns differ from naive", sigma, p, psi, eng)
					}
				}
			}
		}
	}
}
