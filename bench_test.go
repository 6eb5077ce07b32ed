// Benchmarks regenerating every figure and table of the paper's evaluation
// (§4), at reduced scale so `go test -bench=.` completes in minutes. The
// opbench command runs the same harnesses with printed output and supports
// paper-scale runs (-full).
package periodica_test

import (
	"context"
	"fmt"
	"testing"

	"periodica/internal/cimeg"
	"periodica/internal/core"
	"periodica/internal/experiments"
	"periodica/internal/gen"
	"periodica/internal/series"
	"periodica/internal/trends"
	"periodica/internal/walmart"
)

var benchCorrectness = experiments.CorrectnessConfig{
	Length: 20000, Sigma: 10, Periods: []int{25, 32},
	Dists:     []gen.Distribution{gen.Uniform, gen.Normal},
	Multiples: 3, Runs: 2, Seed: 1,
}

// BenchmarkFig3aCorrectnessInerrant regenerates Fig. 3(a): the miner's
// confidence at P, 2P, 3P on inerrant data (all points must be 1).
func BenchmarkFig3aCorrectnessInerrant(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Correctness(benchCorrectness, experiments.MinerConfidence())
		if err != nil {
			b.Fatal(err)
		}
		reportMeanConfidence(b, pointsConf(points))
	}
}

// BenchmarkFig3bCorrectnessNoisy regenerates Fig. 3(b): the miner's
// confidence under 20% replacement noise (expected above ~0.7, unbiased in
// the period).
func BenchmarkFig3bCorrectnessNoisy(b *testing.B) {
	cfg := benchCorrectness
	cfg.Noise = gen.Replacement
	cfg.Ratio = 0.2
	for i := 0; i < b.N; i++ {
		points, err := experiments.Correctness(cfg, experiments.MinerConfidence())
		if err != nil {
			b.Fatal(err)
		}
		reportMeanConfidence(b, pointsConf(points))
	}
}

// BenchmarkFig4aTrendsInerrant regenerates Fig. 4(a): the periodic-trends
// baseline's normalized-rank confidence on inerrant data.
func BenchmarkFig4aTrendsInerrant(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Correctness(benchCorrectness, experiments.TrendsConfidence(0, 1))
		if err != nil {
			b.Fatal(err)
		}
		reportMeanConfidence(b, pointsConf(points))
	}
}

// BenchmarkFig4bTrendsNoisy regenerates Fig. 4(b): the trends baseline under
// noise, where its large-period bias shows.
func BenchmarkFig4bTrendsNoisy(b *testing.B) {
	cfg := benchCorrectness
	cfg.Noise = gen.Replacement
	cfg.Ratio = 0.3
	for i := 0; i < b.N; i++ {
		points, err := experiments.Correctness(cfg, experiments.TrendsConfidence(0, 1))
		if err != nil {
			b.Fatal(err)
		}
		reportMeanConfidence(b, pointsConf(points))
	}
}

// BenchmarkFig5Detection regenerates Fig. 5's two curves: wall-clock time of
// the miner's one-pass detection phase and of the trends baseline's sketch,
// per input size. The paper's claim is the shape — both near-linear on
// log-log axes, the miner ahead by the missing log factor.
func BenchmarkFig5Detection(b *testing.B) {
	for _, n := range []int{1 << 13, 1 << 15, 1 << 17, 1 << 19} {
		s := walmartSized(b, n)
		b.Run(fmt.Sprintf("miner/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.DetectCandidatesContext(context.Background(), s, 0.8, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("trends/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := trends.Sketched(s, 0, 0, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6NoiseResilience regenerates Fig. 6: confidence at the
// embedded period per noise mixture and ratio.
func BenchmarkFig6NoiseResilience(b *testing.B) {
	for _, kind := range experiments.AllNoiseKinds {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				points, err := experiments.NoiseResilience(experiments.NoiseConfig{
					Length: 20000, Sigma: 10, Period: 25, Dist: gen.Uniform,
					Kinds: []gen.Noise{kind}, Ratios: []float64{0.1, 0.3, 0.5},
					Runs: 2, Seed: 2,
				})
				if err != nil {
					b.Fatal(err)
				}
				var confs []float64
				for _, pt := range points {
					confs = append(confs, pt.Confidence)
				}
				reportMeanConfidence(b, confs)
			}
		})
	}
}

// BenchmarkTable1Periods regenerates Table 1: detected period values per
// threshold for the Wal-Mart and CIMEG substitutes.
func BenchmarkTable1Periods(b *testing.B) {
	wm := walmart.Series(walmart.Config{Months: 15, Seed: 3})
	cm := cimeg.Series(cimeg.Config{Days: 365, Seed: 3})
	thresholds := []int{100, 90, 80, 70, 60, 50, 40, 30, 20, 10}
	b.Run("walmart", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rows, err := experiments.PeriodTable(wm, thresholds, 0, 4)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(rows[5].NumPeriods), "periods@50%")
		}
	})
	b.Run("cimeg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rows, err := experiments.PeriodTable(cm, thresholds, 0, 4)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(rows[5].NumPeriods), "periods@50%")
		}
	})
}

// BenchmarkTable2SinglePatterns regenerates Table 2: periodic single-symbol
// patterns at period 24 (Wal-Mart) and period 7 (CIMEG) per threshold.
func BenchmarkTable2SinglePatterns(b *testing.B) {
	wm := walmart.Series(walmart.Config{Months: 15, Seed: 4})
	cm := cimeg.Series(cimeg.Config{Days: 365, Seed: 4})
	thresholds := []int{100, 90, 80, 70, 60, 50}
	b.Run("walmart/p=24", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rows, err := experiments.SinglePatternTable(wm, 24, thresholds)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(rows[4].Patterns)), "patterns@60%")
		}
	})
	b.Run("cimeg/p=7", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rows, err := experiments.SinglePatternTable(cm, 7, thresholds)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(rows[5].Patterns)), "patterns@50%")
		}
	})
}

// BenchmarkTable3Patterns regenerates Table 3: multi-symbol periodic
// patterns of the Wal-Mart substitute at period 24, ψ = 35%.
func BenchmarkTable3Patterns(b *testing.B) {
	wm := walmart.Series(walmart.Config{Months: 15, Seed: 5})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.PatternTable(wm, 24, 0.35, 1000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(rows)), "patterns")
	}
}

func pointsConf(points []experiments.CorrectnessPoint) []float64 {
	out := make([]float64, len(points))
	for i, pt := range points {
		out[i] = pt.Confidence
	}
	return out
}

func reportMeanConfidence(b *testing.B, confs []float64) {
	b.Helper()
	if len(confs) == 0 {
		return
	}
	sum := 0.0
	for _, c := range confs {
		sum += c
	}
	b.ReportMetric(sum/float64(len(confs)), "confidence")
}

func walmartSized(b *testing.B, n int) *series.Series {
	b.Helper()
	months := n/(30*24) + 1
	s := walmart.Series(walmart.Config{Months: months, Seed: 6})
	return s.Slice(0, n)
}
