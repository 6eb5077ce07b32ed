package core

import (
	"testing"

	"periodica/internal/gen"
	"periodica/internal/series"
)

// paperSeries generates the paper setting the served paper-dense workload
// mines: σ=5, period 25, uniform symbols, 20% replacement noise, seed 1.
func paperSeries(tb testing.TB, n int) *series.Series {
	tb.Helper()
	s, _, err := gen.Generate(gen.Config{Length: n, Period: 25, Sigma: 5, Dist: gen.Uniform,
		Noise: gen.Replacement, NoiseRatio: 0.2, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestMinePatternsAllocsIndependentOfPatternCount enumerates one period's
// periodicities up to 1,000 and up to 10,000 patterns. Period 100 of the
// paper setting has more than 10,000, so both runs are cut in the same
// period and build the same occurrence sets. The found list and the Fixed
// arena grow by blocks, so the larger run may allocate only its extra
// blocks, and a scratch set per extra DFS level, not one list per pattern.
func TestMinePatternsAllocsIndependentOfPatternCount(t *testing.T) {
	s := paperSeries(t, 1024)
	res, err := mine(s, Options{Threshold: 0.7, MinPairs: 1, MinPeriod: 100, MaxPeriod: 100, MaxPatternPeriod: -1})
	if err != nil {
		t.Fatal(err)
	}
	det := newDetector(s)
	type run struct {
		allocs                float64
		patterns, pins, depth int
	}
	runs := map[int]run{}
	for _, limit := range []int{1000, 10000} {
		opt := Options{Threshold: 0.7, MaxPatternPeriod: 100, MaxPatterns: limit}
		var out []Pattern
		var truncated bool
		r := run{allocs: testing.AllocsPerRun(5, func() {
			out, truncated, err = minePatterns(det, res.Periodicities, opt, nil)
		})}
		if err != nil {
			t.Fatal(err)
		}
		if !truncated || len(out) != limit {
			t.Fatalf("MaxPatterns %d: %d patterns, truncated %v; the fixture must reach the cap", limit, len(out), truncated)
		}
		for _, pt := range out {
			r.pins += len(pt.Fixed)
			r.depth = max(r.depth, len(pt.Fixed))
		}
		r.patterns = len(out)
		runs[limit] = r
	}
	small, large := runs[1000], runs[10000]
	// The larger run's blocks bound its extra ones: a found block holds
	// foundBlock patterns, and an arena block is more than half full, as a
	// pattern's pins are far fewer than arenaBlock/2. Each extra DFS level
	// adds a scratch set (two allocations) and may grow the chosen and
	// scratch lists once each.
	blocks := large.patterns/foundBlock + 1 + large.pins/(arenaBlock/2) + 1
	allowed := float64(blocks + 4*(large.depth-small.depth))
	if d := large.allocs - small.allocs; d > allowed {
		t.Fatalf("minePatterns allocates %v times at 1,000 patterns and %v at 10,000: %v more, want at most %v",
			small.allocs, large.allocs, d, allowed)
	}
}

// TestResolveAllocsFollowEmittingPeriods checks that the resolve stage
// allocates once per period that emits, plus a constant, and not per
// periodicity: at each threshold the paper setting emits thousands of
// periodicities from a few hundred periods.
func TestResolveAllocsFollowEmittingPeriods(t *testing.T) {
	const fixedAllocs = 40 // slot table, output, scheduler, worker scratch growth
	s := paperSeries(t, 1024)
	for _, psi := range []float64{0.5, 0.7} {
		ses, err := newSession(s, Options{Threshold: psi, MinPairs: 1, Engine: EngineFFT}, sessionConfig{workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := ses.runPipeline(memoryDetect{}, sweepPeriods{}); err != nil {
			t.Fatal(err)
		}
		var pers []SymbolPeriodicity
		allocs := testing.AllocsPerRun(5, func() {
			if pers, err = resolvePeriodicities(ses); err != nil {
				t.Fatal(err)
			}
		})
		periods := 0
		for i, sp := range pers {
			if i == 0 || sp.Period != pers[i-1].Period {
				periods++
			}
		}
		if len(pers) < 2*(periods+fixedAllocs) {
			t.Fatalf("ψ=%v: %d periodicities from %d periods; the fixture cannot tell the two apart", psi, len(pers), periods)
		}
		if allocs > float64(periods+fixedAllocs) {
			t.Errorf("ψ=%v: resolve allocates %v times for %d periodicities from %d periods; want at most %d",
				psi, allocs, len(pers), periods, periods+fixedAllocs)
		}
	}
}
