// Command opbench regenerates the figures and tables of the paper's
// experimental study (§4) and prints them as text.
//
// Usage:
//
//	opbench fig3            # correctness of the miner (Fig. 3 a/b)
//	opbench fig4            # correctness of the periodic-trends baseline
//	opbench fig5            # timing: miner detection vs trends sketch
//	opbench fig6            # noise resilience sweep
//	opbench table1          # period values, Wal-Mart & CIMEG substitutes
//	opbench table2          # single-symbol patterns at p=24 / p=7
//	opbench table3          # multi-symbol patterns, Wal-Mart, ψ=35%
//	opbench dist            # sharded-coordinator scaling vs the local mine
//	                        # (survivors shipped to in-process workers)
//	opbench -query 'conf >= 0.5 and period in 2..64' query
//	                        # time one pattern query end to end (compile,
//	                        # mine, shape) over the Wal-Mart substitute
//	opbench all
//
// The default scale finishes in minutes; -quick names it explicitly (CI
// uses it), and -full restores the paper's 1M-symbol, 100-run settings
// (hours). -workers caps the cores the batched detection engine may use
// (default: all). Every report opens with a provenance
// header (GOMAXPROCS, FFT dispatch constants) so bench_results_*.txt
// files are comparable across hosts.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"periodica"
	"periodica/internal/cimeg"
	"periodica/internal/core"
	"periodica/internal/experiments"
	"periodica/internal/fft"
	"periodica/internal/gen"
	"periodica/internal/series"
	"periodica/internal/walmart"
)

type scale struct {
	length      int
	runs        int
	noiseRuns   int
	timingSizes []int
	months      int
	days        int
}

var quickScale = scale{
	length: 50000, runs: 5, noiseRuns: 3,
	timingSizes: []int{1 << 13, 1 << 15, 1 << 17, 1 << 19},
	months:      15, days: 365,
}

var fullScale = scale{
	length: 1000000, runs: 100, noiseRuns: 20,
	timingSizes: []int{1 << 16, 1 << 18, 1 << 20, 1 << 22},
	months:      15, days: 365,
}

func main() {
	full := flag.Bool("full", false, "paper-scale settings (1M symbols, 100 runs)")
	quick := flag.Bool("quick", false, "CI-scale settings (the default; ignored when -full is set)")
	seed := flag.Int64("seed", 1, "base random seed")
	workers := flag.Int("workers", 0, "cap worker goroutines for the detection engine (0 = all cores)")
	querySrc := flag.String("query", "", "pattern query for the query experiment (default $PERIODICA_QUERY)")
	flag.Parse()

	if *workers > 0 {
		// The batched engine sizes its pools from GOMAXPROCS, so capping it
		// here bounds both the per-pair fan-out and the parallel butterflies.
		runtime.GOMAXPROCS(*workers)
	}
	sc := quickScale
	scaleName := "quick"
	if *full {
		if *quick {
			fmt.Fprintln(os.Stderr, "opbench: -quick and -full are mutually exclusive")
			os.Exit(2)
		}
		sc = fullScale
		scaleName = "full"
	}
	printProvenance(scaleName)
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"all"}
	}
	for _, cmd := range args {
		var err error
		switch cmd {
		case "fig3":
			err = fig3(os.Stdout, sc, *seed)
		case "fig4":
			err = fig4(os.Stdout, sc, *seed)
		case "fig5":
			err = fig5(os.Stdout, sc, *seed)
		case "fig6":
			err = fig6(os.Stdout, sc, *seed)
		case "table1":
			err = table1(os.Stdout, sc, *seed)
		case "table2":
			err = table2(os.Stdout, sc, *seed)
		case "table3":
			err = table3(os.Stdout, sc, *seed)
		case "dist":
			err = distBench(sc, *seed)
		case "query":
			err = queryBench(sc, *seed, *querySrc)
		case "ablation":
			err = ablation(os.Stdout, sc, *seed)
		case "quality":
			err = quality(os.Stdout, sc, *seed)
		case "all":
			for _, f := range []func(io.Writer, scale, int64) error{fig3, fig4, fig5, fig6, table1, table2, table3, ablation, quality} {
				if err = f(os.Stdout, sc, *seed); err != nil {
					break
				}
			}
		default:
			err = fmt.Errorf("unknown experiment %q", cmd)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "opbench:", err)
			os.Exit(1)
		}
	}
}

func correctnessConfig(sc scale, seed int64) experiments.CorrectnessConfig {
	return experiments.CorrectnessConfig{
		Length: sc.length, Sigma: 10, Periods: []int{25, 32},
		Dists:     []gen.Distribution{gen.Uniform, gen.Normal},
		Multiples: 3, Runs: sc.runs, Seed: seed,
	}
}

func fig3(w io.Writer, sc scale, seed int64) error {
	cfg := correctnessConfig(sc, seed)
	points, err := experiments.Correctness(cfg, experiments.MinerConfidence())
	if err != nil {
		return err
	}
	if err := experiments.RenderCorrectness(w, "Fig. 3(a) — miner correctness, inerrant data (confidence at multiples of P)", points); err != nil {
		return err
	}

	cfg.Noise = gen.Replacement
	cfg.Ratio = 0.2
	points, err = experiments.Correctness(cfg, experiments.MinerConfidence())
	if err != nil {
		return err
	}
	if err := experiments.RenderCorrectness(w, "\nFig. 3(b) — miner correctness, 20% replacement noise", points); err != nil {
		return err
	}
	return blank(w)
}

func fig4(w io.Writer, sc scale, seed int64) error {
	// The baseline runs in its published, sketched form. Its normalized-rank
	// confidence depends on the absolute distance D(p), which shrinks with
	// the overlap n−p, so under noise the rank systematically improves as
	// the period grows — the bias §4.1 reports. The effect scales with p/n,
	// so panel (b) sweeps multiples geometrically; the miner's panel at the
	// same multiples (fig3) shows no comparable distance-driven trend.
	cfg := correctnessConfig(sc, seed)
	points, err := experiments.Correctness(cfg, experiments.TrendsConfidence(0, seed))
	if err != nil {
		return err
	}
	if err := experiments.RenderCorrectness(w, "Fig. 4(a) — periodic trends correctness, inerrant data (normalized rank)", points); err != nil {
		return err
	}

	cfg.Noise = gen.Replacement
	cfg.Ratio = 0.5
	points, err = experiments.Correctness(cfg, experiments.TrendsConfidence(0, seed))
	if err != nil {
		return err
	}
	if err := experiments.RenderCorrectness(w, "\nFig. 4(b) — periodic trends correctness, 50% replacement noise (note the large-period bias)", points); err != nil {
		return err
	}

	// Make the bias concrete: under noise the absolute distance shrinks
	// with the overlap n−p, so the top of the trends candidate list fills
	// with the largest multiples while the true period ranks mid-pack.
	stats, err := experiments.TrendsBias(cfg.Length, 25, 0.5, seed)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "\nbias diagnostic (U, P=25, 50%% replacement, n=%d):\n"+
		"  rank of P=25 among %d candidates: %d\n"+
		"  median of the top-100 candidate periods: %d (max period %d)\n"+
		"  miner confidence at P=25 on the same data: %.3f (paper: detectable at ψ=40%%)\n\n",
		cfg.Length, stats.Universe, stats.TrueRank, stats.TopMedian, stats.Universe, stats.MinerConfidence)
	return err
}

func fig5(w io.Writer, sc scale, seed int64) error {
	points, err := experiments.Timing(sc.timingSizes, func(n int) (*series.Series, error) {
		months := n/(30*24) + 1
		s := walmart.Series(walmart.Config{Months: months, Seed: seed, DST: true})
		return s.Slice(0, n), nil
	})
	if err != nil {
		return err
	}
	if err := experiments.RenderTiming(w, "Fig. 5 — detection-phase time vs series length (Wal-Mart-style data)", points); err != nil {
		return err
	}
	return blank(w)
}

func fig6(w io.Writer, sc scale, seed int64) error {
	ratios := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	for _, panel := range []struct {
		title  string
		dist   gen.Distribution
		period int
	}{
		{"Fig. 6(a) — noise resilience, Uniform, P=25", gen.Uniform, 25},
		{"Fig. 6(b) — noise resilience, Normal, P=32", gen.Normal, 32},
	} {
		points, err := experiments.NoiseResilience(experiments.NoiseConfig{
			Length: sc.length, Sigma: 10, Period: panel.period, Dist: panel.dist,
			Kinds: experiments.AllNoiseKinds, Ratios: ratios, Runs: sc.noiseRuns, Seed: seed,
		})
		if err != nil {
			return err
		}
		if err := experiments.RenderNoise(w, panel.title, points); err != nil {
			return err
		}
		if err := blank(w); err != nil {
			return err
		}
	}
	return nil
}

var tableThresholds = []int{100, 90, 80, 70, 60, 50, 40, 30, 20, 10}

func table1(w io.Writer, sc scale, seed int64) error {
	wm := walmart.Series(walmart.Config{Months: sc.months, Seed: seed, DST: true})
	rows, err := experiments.PeriodTable(wm, tableThresholds, 0, 4)
	if err != nil {
		return err
	}
	if err := experiments.RenderPeriodTable(w, "Table 1 — period values, Wal-Mart substitute (hourly transactions)", rows); err != nil {
		return err
	}

	cm := cimeg.Series(cimeg.Config{Days: sc.days, Seed: seed, Seasonal: true})
	rows, err = experiments.PeriodTable(cm, tableThresholds, 0, 4)
	if err != nil {
		return err
	}
	if err := experiments.RenderPeriodTable(w, "\nTable 1 — period values, CIMEG substitute (daily power consumption)", rows); err != nil {
		return err
	}
	return blank(w)
}

func table2(w io.Writer, sc scale, seed int64) error {
	wm := walmart.Series(walmart.Config{Months: sc.months, Seed: seed, DST: true})
	rows, err := experiments.SinglePatternTable(wm, 24, tableThresholds[:6])
	if err != nil {
		return err
	}
	if err := experiments.RenderSinglePatternTable(w, "Table 2 — single-symbol patterns, Wal-Mart substitute, period 24", rows); err != nil {
		return err
	}

	cm := cimeg.Series(cimeg.Config{Days: sc.days, Seed: seed, Seasonal: true})
	rows, err = experiments.SinglePatternTable(cm, 7, tableThresholds[:6])
	if err != nil {
		return err
	}
	if err := experiments.RenderSinglePatternTable(w, "\nTable 2 — single-symbol patterns, CIMEG substitute, period 7", rows); err != nil {
		return err
	}
	return blank(w)
}

func ablation(w io.Writer, sc scale, seed int64) error {
	sizes := []int{1 << 12, 1 << 14, 1 << 16}
	rows, err := experiments.EngineAblation(sizes, 0.7, 1<<14, seed)
	if err != nil {
		return err
	}
	if err := experiments.RenderEngineAblation(w, "Ablation — full mining time per engine (ψ=0.7, pattern stage ≤ p=64)", rows); err != nil {
		return err
	}

	skRows, err := experiments.SketchAblation(1<<15, []int{2, 8, 32, 128}, seed)
	if err != nil {
		return err
	}
	if err := blank(w); err != nil {
		return err
	}
	if err := experiments.RenderSketchAblation(w, "Ablation — trends sketch accuracy vs repetitions (n=32768)", skRows); err != nil {
		return err
	}

	prRows, err := experiments.PruneAblation(1<<14, []int{80, 40}, []int{1, 4, 16}, seed)
	if err != nil {
		return err
	}
	if err := blank(w); err != nil {
		return err
	}
	if err := experiments.RenderPruneAblation(w, "Ablation — FFT-engine prune: (period, symbol) pairs needing phase resolution", prRows); err != nil {
		return err
	}
	return blank(w)
}

func quality(w io.Writer, sc scale, seed int64) error {
	cfg := experiments.QualityConfig{Length: 8000, Period: 25, Sigma: 10,
		Ratios: []float64{0.1, 0.3, 0.5}, Runs: sc.noiseRuns, TopK: 10, Seed: seed}
	rows, err := experiments.Quality(cfg)
	if err != nil {
		return err
	}
	if err := experiments.RenderQuality(w,
		"Quality (beyond the paper) — rank of the true period per detector under replacement noise",
		rows, cfg.TopK); err != nil {
		return err
	}
	return blank(w)
}

// blank ends a report section with an empty line.
func blank(w io.Writer) error {
	_, err := fmt.Fprintln(w)
	return err
}

// printProvenance opens every report with the facts needed to compare two
// bench_results files: scale, parallelism, toolchain, and the dispatch
// constants. Numbers without this header are not comparable across hosts.
func printProvenance(scaleName string) {
	fmt.Printf("opbench: scale=%s GOMAXPROCS=%d go=%s\n",
		scaleName, runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("opbench: dispatch autoBitsetSpan=%d parallelThreshold=%d\n", core.AutoBitsetSpan, fft.ParallelThreshold)
	fmt.Println()
}

// bestOf reports the fastest of reps runs of f, in seconds.
func bestOf(reps int, f func()) float64 {
	best := math.MaxFloat64
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		if d := time.Since(start).Seconds(); d < best {
			best = d
		}
	}
	return best
}

// queryBench times one pattern query end to end — compile, mine, shape —
// over the Wal-Mart substitute, exercising the exact path a query-driven
// caller takes through the public API.
func queryBench(sc scale, seed int64, src string) error {
	if src == "" {
		src = os.Getenv("PERIODICA_QUERY")
	}
	if src == "" {
		return fmt.Errorf("the query experiment needs -query or $PERIODICA_QUERY")
	}
	compileStart := time.Now()
	q, err := periodica.CompileQuery(src)
	if err != nil {
		return err
	}
	compileTime := time.Since(compileStart)
	wm := walmart.Series(walmart.Config{Months: sc.months, Seed: seed, DST: true})
	s, err := periodica.NewSeriesFromString(wm.String())
	if err != nil {
		return err
	}
	mineStart := time.Now()
	res, err := periodica.MineQueryContext(context.Background(), s, q)
	if err != nil {
		return err
	}
	mineTime := time.Since(mineStart)
	fmt.Printf("Query benchmark — Wal-Mart substitute, n=%d\n", s.Len())
	fmt.Printf("  query (canonical): %s\n", q)
	fmt.Printf("  compile: %v   mine+shape: %v\n", compileTime, mineTime)
	fmt.Printf("  periods=%d periodicities=%d patterns=%d truncated=%v\n",
		len(res.Periods), len(res.Periodicities), len(res.Patterns), res.Truncated)
	fmt.Println()
	return nil
}

func table3(w io.Writer, sc scale, seed int64) error {
	wm := walmart.Series(walmart.Config{Months: sc.months, Seed: seed, DST: true})
	rows, err := experiments.PatternTable(wm, 24, 0.35, 30)
	if err != nil {
		return err
	}
	if err := experiments.RenderPatternTable(w, "Table 3 — periodic patterns, Wal-Mart substitute, period 24, ψ=35%", rows); err != nil {
		return err
	}
	return blank(w)
}
