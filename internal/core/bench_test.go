package core

import (
	"fmt"
	"testing"

	"periodica/internal/gen"
	"periodica/internal/series"
)

func benchPeriodic(b *testing.B, n int) *series.Series {
	b.Helper()
	s, _, err := gen.Generate(gen.Config{Length: n, Period: 25, Sigma: 10, Dist: gen.Uniform,
		Noise: gen.Replacement, NoiseRatio: 0.1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkMineEngines is the engine ablation: the same full mining job
// under the naive, bitset and FFT evaluators.
func BenchmarkMineEngines(b *testing.B) {
	s := benchPeriodic(b, 4000)
	for _, eng := range []Engine{EngineNaive, EngineBitset, EngineFFT} {
		b.Run(eng.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mine(s, Options{Threshold: 0.7, Engine: eng, MaxPatternPeriod: 64}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDetectCandidates measures the one-pass detection phase.
func BenchmarkDetectCandidates(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 17} {
		s := benchPeriodic(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := detectCandidates(s, 0.8, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBestConfidences measures the Table-1 sweep.
func BenchmarkBestConfidences(b *testing.B) {
	s := benchPeriodic(b, 8000)
	for i := 0; i < b.N; i++ {
		if _, err := BestConfidences(s, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCountsAppend measures the per-symbol online update cost at
// several period bounds.
func BenchmarkCountsAppend(b *testing.B) {
	for _, maxP := range []int{32, 128, 512} {
		b.Run(fmt.Sprintf("maxPeriod=%d", maxP), func(b *testing.B) {
			m, err := NewCounts(10, maxP)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if err := m.Append(i % 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPatternEnumeration isolates the Definition-3 combination stage:
// it times minePatterns alone over one mine's periodicities. period-25 is
// σ=10 with 10% noise at ψ=0.35, enumerating period 25 only; paper-dense is
// the served workload's shape (σ=5, P=25, n=1024, 20% noise, ψ=0.7, MinPairs
// 1, the default pattern bounds), which reaches the 10,000-pattern cap.
func BenchmarkPatternEnumeration(b *testing.B) {
	for _, c := range []struct {
		name string
		s    *series.Series
		opt  Options
	}{
		{"period-25", benchPeriodic(b, 10000), Options{Threshold: 0.35, MinPeriod: 25, MaxPeriod: 25, MaxPatternPeriod: 25}},
		{"paper-dense", paperSeries(b, 1024), Options{Threshold: 0.7, MinPairs: 1}},
	} {
		opt, err := c.opt.withDefaults(c.s.Len())
		if err != nil {
			b.Fatal(err)
		}
		res, err := mine(c.s, opt)
		if err != nil {
			b.Fatal(err)
		}
		det := newDetector(c.s)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := minePatterns(det, res.Periodicities, opt, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(res.Patterns)), "patterns")
		})
	}
}

// BenchmarkMergeCounts measures the segment-merge cost.
func BenchmarkMergeCounts(b *testing.B) {
	build := func() *Counts {
		m, _ := NewCounts(10, 128)
		for i := 0; i < 5000; i++ {
			_ = m.Append(i % 10)
		}
		return m
	}
	seg := build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := build()
		b.StartTimer()
		if err := a.Merge(seg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResolve times the resolve stage alone over the survivors of one
// detect and sweep, for two served shapes with 20% replacement noise and the
// FFT engine: dist-2w's (σ=10, P=32, n=16384, periods up to 512, at least
// 3 pairs, ψ=0.6) and paper-dense's (σ=5, P=25, n=1024, MinPairs 1,
// ψ=0.7). It reports the survivors resolved per mine and the rows the
// cutoff abandoned.
func BenchmarkResolve(b *testing.B) {
	for _, c := range []struct {
		name                string
		n, period, sigma    int
		psi                 float64
		maxPeriod, minPairs int
	}{
		{"dist-2w", 16384, 32, 10, 0.6, 512, 3},
		{"paper-dense", 1024, 25, 5, 0.7, 0, 1},
	} {
		s, _, err := gen.Generate(gen.Config{Length: c.n, Period: c.period, Sigma: c.sigma, Dist: gen.Uniform,
			Noise: gen.Replacement, NoiseRatio: 0.2, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		opt := Options{Threshold: c.psi, MaxPeriod: c.maxPeriod, MinPairs: c.minPairs, Engine: EngineFFT}
		ses, err := newSession(s, opt, sessionConfig{workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := ses.runPipeline(memoryDetect{}, sweepPeriods{}); err != nil {
			b.Fatal(err)
		}
		survivors, abandoned := 0, 0
		det := ses.newWorkerDetector()
		for i, surv := range ses.surv {
			det.resolve(ses.opt.MinPeriod+i, surv, ses.opt.Threshold, func(SymbolPeriodicity) {})
			survivors += len(surv)
			abandoned += len(surv) - len(det.live)
		}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := resolvePeriodicities(ses); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(survivors), "survivors")
			b.ReportMetric(float64(abandoned), "abandoned")
		})
	}
}
