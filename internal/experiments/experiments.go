// Package expr is the experiment harness that regenerates every figure and
// table of the paper's §4: the correctness study of the miner and the
// periodic-trends baseline (Figs. 3 and 4), the head-to-head timing study
// (Fig. 5), the noise-resilience sweep (Fig. 6), and the Wal-Mart/CIMEG
// period and pattern tables (Tables 1–3).
package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"periodica/internal/core"
	"periodica/internal/gen"
	"periodica/internal/query"
	"periodica/internal/series"
	"periodica/internal/trends"
)

// ConfidenceFunc builds, for one series, a function answering "with what
// confidence is p a period of this series?". The miner's and the trends
// baseline's notions of confidence both fit this shape, which is how §4.1
// compares them.
type ConfidenceFunc func(s *series.Series) (func(p int) float64, error)

// MinerConfidence scores a period by the maximum Definition-1 confidence over
// symbols and positions.
func MinerConfidence() ConfidenceFunc {
	return func(s *series.Series) (func(p int) float64, error) {
		c := core.NewConfidencer(s)
		return c.At, nil
	}
}

// TrendsConfidence scores a period by the trends baseline's normalized rank,
// estimated with its published O(n log² n) sketch.
func TrendsConfidence(repetitions int, seed int64) ConfidenceFunc {
	return func(s *series.Series) (func(p int) float64, error) {
		r, err := trends.Sketched(s, 0, repetitions, seed)
		if err != nil {
			return nil, err
		}
		return r.Confidence, nil
	}
}

// CorrectnessConfig drives the Fig. 3 / Fig. 4 study.
type CorrectnessConfig struct {
	Length    int
	Sigma     int
	Periods   []int              // embedded periods, e.g. {25, 32}
	Dists     []gen.Distribution // e.g. {Uniform, Normal}
	Multiples int                // confidence reported at P, 2P, …, Multiples·P
	Multiple  []int              // explicit multiples (overrides Multiples when set)
	Runs      int                // averaging runs per configuration
	Noise     gen.Noise          // zero for the inerrant panel
	Ratio     float64            // noise ratio for the noisy panel
	Seed      int64
}

func (c CorrectnessConfig) withDefaults() CorrectnessConfig {
	if c.Length == 0 {
		c.Length = 100000
	}
	if c.Sigma == 0 {
		c.Sigma = 10
	}
	if len(c.Periods) == 0 {
		c.Periods = []int{25, 32}
	}
	if len(c.Dists) == 0 {
		c.Dists = []gen.Distribution{gen.Uniform, gen.Normal}
	}
	if c.Multiples == 0 {
		c.Multiples = 3
	}
	if len(c.Multiple) == 0 {
		for m := 1; m <= c.Multiples; m++ {
			c.Multiple = append(c.Multiple, m)
		}
	}
	if c.Runs == 0 {
		c.Runs = 5
	}
	return c
}

// CorrectnessPoint is one plotted point: the mean confidence at multiple·P
// for one (distribution, period) curve.
type CorrectnessPoint struct {
	Dist       gen.Distribution
	Period     int
	Multiple   int
	Confidence float64
}

// Correctness measures mean confidence at P, 2P, … for every (dist, period)
// combination of cfg, scoring with conf.
func Correctness(cfg CorrectnessConfig, conf ConfidenceFunc) ([]CorrectnessPoint, error) {
	cfg = cfg.withDefaults()
	var out []CorrectnessPoint
	for _, dist := range cfg.Dists {
		for _, period := range cfg.Periods {
			sums := make([]float64, len(cfg.Multiple))
			for run := 0; run < cfg.Runs; run++ {
				s, _, err := gen.Generate(gen.Config{
					Length: cfg.Length, Period: period, Sigma: cfg.Sigma, Dist: dist,
					Noise: cfg.Noise, NoiseRatio: cfg.Ratio,
					Seed: cfg.Seed + int64(run)*7919,
				})
				if err != nil {
					return nil, err
				}
				at, err := conf(s)
				if err != nil {
					return nil, err
				}
				for i, m := range cfg.Multiple {
					sums[i] += at(m * period)
				}
			}
			for i, m := range cfg.Multiple {
				out = append(out, CorrectnessPoint{
					Dist: dist, Period: period, Multiple: m,
					Confidence: sums[i] / float64(cfg.Runs),
				})
			}
		}
	}
	return out, nil
}

// NoiseConfig drives the Fig. 6 resilience sweep.
type NoiseConfig struct {
	Length int
	Sigma  int
	Period int
	Dist   gen.Distribution
	Kinds  []gen.Noise // noise mixtures to sweep
	Ratios []float64   // noise ratios to sweep
	Runs   int
	Seed   int64
}

func (c NoiseConfig) withDefaults() NoiseConfig {
	if c.Length == 0 {
		c.Length = 100000
	}
	if c.Sigma == 0 {
		c.Sigma = 10
	}
	if c.Period == 0 {
		c.Period = 25
	}
	if len(c.Kinds) == 0 {
		c.Kinds = AllNoiseKinds
	}
	if len(c.Ratios) == 0 {
		c.Ratios = []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	}
	if c.Runs == 0 {
		c.Runs = 5
	}
	return c
}

// AllNoiseKinds lists the seven mixtures of Fig. 6.
var AllNoiseKinds = []gen.Noise{
	gen.Replacement,
	gen.Insertion,
	gen.Deletion,
	gen.Replacement | gen.Insertion,
	gen.Replacement | gen.Deletion,
	gen.Insertion | gen.Deletion,
	gen.Replacement | gen.Insertion | gen.Deletion,
}

// NoisePoint is the mean confidence at the embedded period for one noise
// mixture and ratio.
type NoisePoint struct {
	Kind       gen.Noise
	Ratio      float64
	Confidence float64
}

// NoiseResilience measures how the embedded period's confidence degrades
// under each noise mixture and ratio.
func NoiseResilience(cfg NoiseConfig) ([]NoisePoint, error) {
	cfg = cfg.withDefaults()
	var out []NoisePoint
	for _, kind := range cfg.Kinds {
		for _, ratio := range cfg.Ratios {
			sum := 0.0
			for run := 0; run < cfg.Runs; run++ {
				s, _, err := gen.Generate(gen.Config{
					Length: cfg.Length, Period: cfg.Period, Sigma: cfg.Sigma, Dist: cfg.Dist,
					Noise: kind, NoiseRatio: ratio,
					Seed: cfg.Seed + int64(run)*104729,
				})
				if err != nil {
					return nil, err
				}
				sum += core.PeriodConfidence(s, cfg.Period)
			}
			out = append(out, NoisePoint{Kind: kind, Ratio: ratio, Confidence: sum / float64(cfg.Runs)})
		}
	}
	return out, nil
}

// BiasStats quantifies the trends baseline's large-period bias on one noisy
// series: where the true period ranks, what crowds the top of the candidate
// list, and how confidently the miner detects the same period.
type BiasStats struct {
	Universe        int // number of ranked candidate periods (n/2)
	TrueRank        int // candidacy rank of the embedded period
	TopMedian       int // median period value among the top-100 candidates
	MinerConfidence float64
}

// TrendsBias measures BiasStats for one uniform series of the given length
// and embedded period under replacement noise at the given ratio.
func TrendsBias(length, period int, ratio float64, seed int64) (*BiasStats, error) {
	s, _, err := gen.Generate(gen.Config{
		Length: length, Period: period, Sigma: 10, Dist: gen.Uniform,
		Noise: gen.Replacement, NoiseRatio: ratio, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	r, err := trends.Sketched(s, 0, 0, seed)
	if err != nil {
		return nil, err
	}
	top := r.Candidates()
	if len(top) > 100 {
		top = top[:100]
	}
	med := append([]int(nil), top...)
	sort.Ints(med)
	return &BiasStats{
		Universe:        r.MaxPeriod,
		TrueRank:        r.Rank(period),
		TopMedian:       med[len(med)/2],
		MinerConfidence: core.PeriodConfidence(s, period),
	}, nil
}

// TimingPoint is one size point of the Fig. 5 study.
type TimingPoint struct {
	N          int
	MinerSecs  float64
	TrendsSecs float64
}

// Timing measures the wall-clock time of the miner's period-detection phase
// (DetectCandidatesContext, the O(σ n log n) one-pass-plus-FFT stage, whose
// output — a candidate period set — matches what the trends baseline
// produces) against the trends baseline's O(n log² n) sketch, over the
// given input sizes. source builds the series for a size.
func Timing(sizes []int, source func(n int) (*series.Series, error)) ([]TimingPoint, error) {
	var out []TimingPoint
	for _, n := range sizes {
		s, err := source(n)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := core.DetectCandidatesContext(context.Background(), s, 0.8, 0); err != nil {
			return nil, err
		}
		minerSecs := time.Since(start).Seconds()

		start = time.Now()
		if _, err := trends.Sketched(s, 0, 0, 1); err != nil {
			return nil, err
		}
		trendsSecs := time.Since(start).Seconds()

		out = append(out, TimingPoint{N: s.Len(), MinerSecs: minerSecs, TrendsSecs: trendsSecs})
	}
	return out, nil
}

// PeriodRow is one row of Table 1: the periods detected at one threshold.
type PeriodRow struct {
	ThresholdPct int
	NumPeriods   int
	Sample       []int // up to the first few detected periods
}

// PeriodTable reproduces Table 1 for one series: for each threshold
// (descending percentages), the number of detected candidate periods and a
// small sample of them. Best confidences per period are computed once and
// every row is sliced out of that single sweep.
func PeriodTable(s *series.Series, thresholdsPct []int, maxPeriod, sampleSize int) ([]PeriodRow, error) {
	if len(thresholdsPct) == 0 {
		return nil, fmt.Errorf("expr: no thresholds")
	}
	for _, t := range thresholdsPct {
		if t < 1 || t > 100 {
			return nil, fmt.Errorf("expr: threshold %d%% outside [1,100]", t)
		}
	}
	best, err := core.BestConfidences(s, maxPeriod)
	if err != nil {
		return nil, err
	}
	var rows []PeriodRow
	for _, pct := range thresholdsPct {
		row := PeriodRow{ThresholdPct: pct}
		psi := float64(pct) / 100
		for p := 1; p < len(best); p++ {
			if best[p] >= psi {
				row.NumPeriods++
				if len(row.Sample) < sampleSize {
					row.Sample = append(row.Sample, p)
				}
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// SinglePatternRow is one row of Table 2: the periodic single-symbol patterns
// at a fixed period for one threshold, rendered as the paper's (symbol,
// position) pairs.
type SinglePatternRow struct {
	ThresholdPct int
	Patterns     []string
}

// SinglePatternTable reproduces Table 2 for one series and period.
func SinglePatternTable(s *series.Series, period int, thresholdsPct []int) ([]SinglePatternRow, error) {
	opt, err := core.OptionsFromSpec(query.Spec{
		Threshold: 0.01, MinPeriod: period, MaxPeriod: period, MaxPatternPeriod: -1,
	})
	if err != nil {
		return nil, err
	}
	res, err := core.MineContext(context.Background(), s, opt)
	if err != nil {
		return nil, err
	}
	var rows []SinglePatternRow
	for _, pct := range thresholdsPct {
		psi := float64(pct) / 100
		row := SinglePatternRow{ThresholdPct: pct}
		for _, sp := range res.Periodicities {
			if sp.Confidence >= psi {
				row.Patterns = append(row.Patterns,
					fmt.Sprintf("(%s,%d)", s.Alphabet().Symbol(sp.Symbol), sp.Position))
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PatternRow is one row of Table 3: a multi-symbol periodic pattern with its
// support.
type PatternRow struct {
	Pattern    string
	SupportPct float64
}

// PatternTable reproduces Table 3: the multi-symbol periodic patterns of one
// period at one threshold, most supported first.
func PatternTable(s *series.Series, period int, psi float64, maxPatterns int) ([]PatternRow, error) {
	opt, err := core.OptionsFromSpec(query.Spec{
		Threshold: psi, MinPeriod: period, MaxPeriod: period,
		MaxPatternPeriod: period, MaxPatterns: maxPatterns,
	})
	if err != nil {
		return nil, err
	}
	res, err := core.MineContext(context.Background(), s, opt)
	if err != nil {
		return nil, err
	}
	var rows []PatternRow
	for _, pt := range res.Patterns {
		rows = append(rows, PatternRow{
			Pattern:    pt.Render(s.Alphabet()),
			SupportPct: pt.Support * 100,
		})
	}
	return rows, nil
}
