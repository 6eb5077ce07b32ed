package baseline

import (
	"testing"

	"periodica/internal/gen"
)

// BenchmarkPeriodFinders times the Ma–Hellerstein candidate-period finder.
func BenchmarkPeriodFinders(b *testing.B) {
	s, _, err := gen.Generate(gen.Config{Length: 1 << 14, Period: 25, Sigma: 10, Dist: gen.Uniform,
		Noise: gen.Replacement, NoiseRatio: 0.1, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("ma-hellerstein", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MaHellerstein(s, MHConfig{})
		}
	})
}
