package core

import (
	"math/rand"
	"reflect"
	"testing"

	"periodica/internal/alphabet"
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

// TestSessionScopedPlanCache mines through a session holding its own FFT-plan
// cache and checks the result is identical to the process-shared default: the
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

	want, err := mine(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Periodicities) == 0 {
		t.Fatal("fixture detected nothing; the test is vacuous")
	}

	ses, err := newSession(s, opt, sessionConfig{workers: 1, plans: fft.NewPlanCache()})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ses.mine()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("session-scoped plan cache changed the mining result")
	}
}
