package conv

import (
	"fmt"
	"math/rand"
	"testing"

	"periodica/internal/alphabet"
	"periodica/internal/fft"
	"periodica/internal/series"
)

func benchSeries(n, sigma int) *series.Series {
	rng := rand.New(rand.NewSource(1))
	idx := make([]uint16, n)
	for i := range idx {
		idx[i] = uint16(rng.Intn(sigma))
	}
	return series.FromIndices(alphabet.Letters(sigma), idx)
}

// BenchmarkLagMatchCounts is the ablation FFT vs naive vs parallel for the
// detection phase's aggregate counts.
func BenchmarkLagMatchCounts(b *testing.B) {
	s := benchSeries(1<<13, 10)
	b.Run("fft", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			LagMatchCounts(s)
		}
	})
	b.Run("fft-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lagCountsExec(b, s, 0)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			LagMatchCountsNaive(s)
		}
	})
}

// BenchmarkAutocorrelateBatched is the detection sweep's inner loop at
// benchmark scale: σ indicators through pair-packed planned FFTs, at several
// worker counts, against the unbatched per-symbol form.
func BenchmarkAutocorrelateBatched(b *testing.B) {
	for _, n := range []int{1 << 15, 1 << 17} {
		s := benchSeries(n, 10)
		b.Run(fmt.Sprintf("batched-serial/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				LagMatchCounts(s)
			}
		})
		b.Run(fmt.Sprintf("batched-parallel/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lagCountsExec(b, s, 0)
			}
		})
		b.Run(fmt.Sprintf("per-symbol/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for k := 0; k < s.Alphabet().Size(); k++ {
					fft.AutocorrelateCounts(s.Indicator(k))
				}
			}
		})
	}
}

func BenchmarkComponentExtraction(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 14} {
		s := benchSeries(n, 5)
		m := Map(s)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var dst = m.Component(1, nil)
			for i := 0; i < b.N; i++ {
				dst = m.Component(1+i%(n-1), dst)
			}
		})
	}
}

func BenchmarkMatchSet(b *testing.B) {
	s := benchSeries(1<<16, 10)
	ind := NewIndicators(s)
	b.ResetTimer()
	var dst = ind.MatchSet(0, 1, nil)
	for i := 0; i < b.N; i++ {
		dst = ind.MatchSet(i%10, 1+i%1000, dst)
	}
}

func BenchmarkMap(b *testing.B) {
	s := benchSeries(1<<14, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Map(s)
	}
}
