package core

import (
	"fmt"
	"testing"

	"periodica/internal/alphabet"
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

// BenchmarkIncrementalAppend measures the per-symbol online update cost at
// several period bounds.
func BenchmarkIncrementalAppend(b *testing.B) {
	for _, maxP := range []int{32, 128, 512} {
		b.Run(fmt.Sprintf("maxPeriod=%d", maxP), func(b *testing.B) {
			m, err := NewIncrementalMiner(alphabet.Letters(10), maxP)
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

// BenchmarkPatternEnumeration isolates the Definition-3 combination stage.
func BenchmarkPatternEnumeration(b *testing.B) {
	s := benchPeriodic(b, 10000)
	for i := 0; i < b.N; i++ {
		if _, err := mine(s, Options{Threshold: 0.35, MinPeriod: 25, MaxPeriod: 25, MaxPatternPeriod: 25}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergeMiners measures the segment-merge cost.
func BenchmarkMergeMiners(b *testing.B) {
	alpha := alphabet.Letters(10)
	build := func() *IncrementalMiner {
		m, _ := NewIncrementalMiner(alpha, 128)
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
