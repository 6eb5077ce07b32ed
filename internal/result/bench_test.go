package result

import (
	"context"
	"io"
	"testing"

	"periodica/internal/alphabet"
	"periodica/internal/core"
	"periodica/internal/gen"
	"periodica/internal/query"
)

// paperResult mines the paper's setting (σ=5, P=25, n=1024, 20% replacement
// noise) under the query "conf >= 0.7 and engine fft", whose defaults give
// MinPairs 1: an output-bound mine of some twelve thousand periodicities.
func paperResult(b *testing.B) (*alphabet.Alphabet, *core.Result) {
	b.Helper()
	s, _, err := gen.Generate(gen.Config{Length: 1024, Period: 25, Sigma: 5, Dist: gen.Uniform,
		Noise: gen.Replacement, NoiseRatio: 0.2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sp, err := query.Compile("conf >= 0.7 and engine fft")
	if err != nil {
		b.Fatal(err)
	}
	opt, err := core.OptionsFromSpec(sp)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.MineContext(context.Background(), s, opt)
	if err != nil {
		b.Fatal(err)
	}
	return s.Alphabet(), res
}

// sink keeps the benchmarked conversion from being optimized away.
var sink *Result

// BenchmarkFromCore times converting a paper-setting mine to the public
// form, single-symbol texts included.
func BenchmarkFromCore(b *testing.B) {
	alpha, res := paperResult(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = FromCore(alpha, res, false)
	}
	b.ReportMetric(float64(len(res.Periodicities)), "periodicities")
}

// BenchmarkWriteJSON times encoding a converted paper-setting mine.
func BenchmarkWriteJSON(b *testing.B) {
	alpha, res := paperResult(b)
	r := FromCore(alpha, res, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteJSON(io.Discard, r); err != nil {
			b.Fatal(err)
		}
	}
}
