package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"periodica/internal/conv"
	"periodica/internal/core"
	"periodica/internal/gen"
	"periodica/internal/query"
	"periodica/internal/series"
	"periodica/internal/trends"
)

// EngineRow times one full mining job (detection + patterns) under each
// engine at one input size.
type EngineRow struct {
	N            int
	NaiveSecs    float64 // NaN when skipped (too large)
	BitsetSecs   float64
	FFTSecs      float64
	ParallelSecs float64 // core.MineWorkers at GOMAXPROCS workers
}

// EngineAblation times core.MineContext under the naive, bitset and FFT
// engines and the parallel miner, over the given sizes. The naive engine is
// skipped above naiveLimit (0 = always run).
func EngineAblation(sizes []int, psi float64, naiveLimit int, seed int64) ([]EngineRow, error) {
	var out []EngineRow
	for _, n := range sizes {
		s, _, err := gen.Generate(gen.Config{Length: n, Period: 25, Sigma: 10, Dist: gen.Uniform,
			Noise: gen.Replacement, NoiseRatio: 0.1, Seed: seed})
		if err != nil {
			return nil, err
		}
		row := EngineRow{N: n, NaiveSecs: math.NaN()}
		timeIt := func(engine string) (float64, error) {
			opt, err := core.OptionsFromSpec(query.Spec{Threshold: psi, Engine: engine, MaxPatternPeriod: 64})
			if err != nil {
				return 0, err
			}
			start := time.Now()
			_, err = core.MineContext(context.Background(), s, opt)
			return time.Since(start).Seconds(), err
		}
		if naiveLimit == 0 || n <= naiveLimit {
			if row.NaiveSecs, err = timeIt(query.EngineNaive); err != nil {
				return nil, err
			}
		}
		if row.BitsetSecs, err = timeIt(query.EngineBitset); err != nil {
			return nil, err
		}
		if row.FFTSecs, err = timeIt(query.EngineFFT); err != nil {
			return nil, err
		}
		popt, err := core.OptionsFromSpec(query.Spec{Threshold: psi, MaxPatternPeriod: 64})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := core.MineWorkers(context.Background(), s, popt, runtime.GOMAXPROCS(0)); err != nil {
			return nil, err
		}
		row.ParallelSecs = time.Since(start).Seconds()
		out = append(out, row)
	}
	return out, nil
}

// RenderEngineAblation prints the engine timing rows.
func RenderEngineAblation(w io.Writer, title string, rows []EngineRow) error {
	ew := &errWriter{w: w}
	ew.printf("%s\n", title)
	ew.printf("%10s  %10s  %10s  %10s  %10s\n", "n", "naive (s)", "bitset (s)", "fft (s)", "parallel")
	for _, r := range rows {
		naive := "-"
		if !math.IsNaN(r.NaiveSecs) {
			naive = fmt.Sprintf("%.4f", r.NaiveSecs)
		}
		ew.printf("%10d  %10s  %10.4f  %10.4f  %10.4f\n", r.N, naive, r.BitsetSecs, r.FFTSecs, r.ParallelSecs)
	}
	return ew.err
}

// SketchRow reports the trends sketch's accuracy/cost trade-off at one
// repetition count.
type SketchRow struct {
	Repetitions int
	MeanRelErr  float64
	Secs        float64
}

// SketchAblation measures the sketched trends estimator against the exact
// distances across repetition counts.
func SketchAblation(length int, repetitions []int, seed int64) ([]SketchRow, error) {
	s, err := noisySeries(length, seed)
	if err != nil {
		return nil, err
	}
	exact, err := trends.Exact(s, 0)
	if err != nil {
		return nil, err
	}
	var out []SketchRow
	for _, reps := range repetitions {
		start := time.Now()
		sk, err := trends.Sketched(s, 0, reps, seed)
		if err != nil {
			return nil, err
		}
		secs := time.Since(start).Seconds()
		var relSum float64
		var count int
		for p := 1; p <= exact.MaxPeriod; p++ {
			if exact.Distances[p] < 1 {
				continue
			}
			relSum += math.Abs(sk.Distances[p]-exact.Distances[p]) / exact.Distances[p]
			count++
		}
		if count == 0 {
			return nil, fmt.Errorf("expr: no measurable distances")
		}
		out = append(out, SketchRow{Repetitions: reps, MeanRelErr: relSum / float64(count), Secs: secs})
	}
	return out, nil
}

// RenderSketchAblation prints the sketch accuracy/cost rows.
func RenderSketchAblation(w io.Writer, title string, rows []SketchRow) error {
	ew := &errWriter{w: w}
	ew.printf("%s\n", title)
	ew.printf("%12s  %14s  %10s\n", "repetitions", "mean rel err", "time (s)")
	for _, r := range rows {
		ew.printf("%12d  %13.2f%%  %10.4f\n", r.Repetitions, r.MeanRelErr*100, r.Secs)
	}
	return ew.err
}

// PruneRow reports the FFT engine's prune effectiveness at one threshold and
// MinPairs requirement.
type PruneRow struct {
	ThresholdPct int
	MinPairs     int
	Survivors    int // (period, symbol) pairs needing phase resolution
	Total        int // all (period, symbol) pairs examined
}

// PruneAblation counts how many (period, symbol) pairs survive the sound
// aggregate prune — the work the FFT engine avoids — across thresholds and
// MinPairs requirements. With the paper's MinPairs = 1 semantics almost
// nothing at large periods is prunable (a single match at a two-slot
// projection reaches confidence 1); requiring statistical mass restores the
// prune's bite.
func PruneAblation(length int, thresholdsPct, minPairs []int, seed int64) ([]PruneRow, error) {
	s, err := noisySeries(length, seed)
	if err != nil {
		return nil, err
	}
	lag := conv.LagMatchCounts(s)
	n := s.Len()
	var out []PruneRow
	for _, mp := range minPairs {
		for _, pct := range thresholdsPct {
			psi := float64(pct) / 100
			row := PruneRow{ThresholdPct: pct, MinPairs: mp}
			for p := 1; p <= n/2; p++ {
				floor := n/p - 1 // ⌈(n−(p−1))/p⌉ − 1, the smallest denominator
				if floor < mp {
					floor = mp
				}
				maxPairs := (n+p-1)/p - 1 // denominator at position 0
				for k := range lag {
					row.Total++
					if maxPairs < mp {
						continue // period skipped outright
					}
					if core.Survives(lag[k][p], floor, psi) {
						row.Survivors++
					}
				}
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// noisySeries generates the series SketchAblation and PruneAblation measure:
// σ=10, period 25, 20% replacement noise.
func noisySeries(length int, seed int64) (*series.Series, error) {
	s, _, err := gen.Generate(gen.Config{Length: length, Period: 25, Sigma: 10, Dist: gen.Uniform,
		Noise: gen.Replacement, NoiseRatio: 0.2, Seed: seed})
	return s, err
}

// RenderPruneAblation prints the prune effectiveness rows.
func RenderPruneAblation(w io.Writer, title string, rows []PruneRow) error {
	ew := &errWriter{w: w}
	ew.printf("%s\n", title)
	ew.printf("%10s  %9s  %12s  %12s  %10s\n", "threshold", "minPairs", "survivors", "total", "resolved")
	for _, r := range rows {
		frac := float64(r.Survivors) / float64(r.Total)
		ew.printf("%9d%%  %9d  %12d  %12d  %9.1f%%\n", r.ThresholdPct, r.MinPairs, r.Survivors, r.Total, frac*100)
	}
	return ew.err
}
