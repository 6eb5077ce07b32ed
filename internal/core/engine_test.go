package core

import (
	"math/rand"
	"reflect"
	"testing"

	"periodica/internal/alphabet"
	"periodica/internal/conv"
	"periodica/internal/exec"
	"periodica/internal/fft"
	"periodica/internal/series"
)

// TestResolveEngineCrossover pins EngineAuto's band rule to its one home,
// resolveEngine: popcount up to AutoBitsetSpan periods, the FFT beyond, and
// never naive. A named engine passes through at any span. The served
// benchmark's mine shapes (paper-dense, walmart-values, dist-2w) sweep 512,
// 400 and 512 periods and must stay on the FFT.
func TestResolveEngineCrossover(t *testing.T) {
	if AutoBitsetSpan >= 400 {
		t.Fatalf("AutoBitsetSpan = %d would move walmart-values (a 400-period band) off the FFT", AutoBitsetSpan)
	}
	cases := []struct {
		name string
		in   Engine
		span int
		want Engine
	}{
		{"auto one period", EngineAuto, 1, EngineBitset},
		{"auto at the limit", EngineAuto, AutoBitsetSpan, EngineBitset},
		{"auto past the limit", EngineAuto, AutoBitsetSpan + 1, EngineFFT},
		{"auto walmart-values", EngineAuto, 400, EngineFFT},
		{"auto paper-dense and dist-2w", EngineAuto, 512, EngineFFT},
		{"auto full band at n=2^20", EngineAuto, 1 << 19, EngineFFT},
		{"naive narrow", EngineNaive, 1, EngineNaive},
		{"naive wide", EngineNaive, 512, EngineNaive},
		{"bitset narrow", EngineBitset, 1, EngineBitset},
		{"bitset wide", EngineBitset, 1 << 19, EngineBitset},
		{"fft narrow", EngineFFT, 1, EngineFFT},
		{"fft wide", EngineFFT, 512, EngineFFT},
	}
	for _, tc := range cases {
		if got := resolveEngine(tc.in, tc.span); got != tc.want {
			t.Errorf("%s: resolveEngine(%v, %d) = %v, want %v", tc.name, tc.in, tc.span, got, tc.want)
		}
	}
}

// TestSessionScopedPlanCache: a session's detect stage takes its FFT plans
// from the process-shared cache, and its lag counts — hence the mined
// result — are identical to a detect over a fresh, isolated cache: the plan
// cache is a pure performance artifact, never a semantic one.
func TestSessionScopedPlanCache(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	idx := make([]uint16, 5000)
	for i := range idx {
		idx[i] = uint16(i % 5 % 3)
		if rng.Intn(6) == 0 {
			idx[i] = uint16(rng.Intn(3))
		}
	}
	s := series.FromIndices(alphabet.Letters(3), idx)
	opt := Options{Threshold: 0.6, Engine: EngineFFT, MinPairs: 3, MaxPatternPeriod: 20}

	ses, err := newSession(s, opt, sessionConfig{workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ses.mine()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Periodicities) == 0 {
		t.Fatal("fixture detected nothing; the test is vacuous")
	}
	isolated, err := conv.LagMatchCountsBand(s, ses.opt.MaxPeriod, exec.New(exec.Config{Workers: 1}), 1, fft.NewPlanCache())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ses.lag, isolated) {
		t.Error("an isolated plan cache changed the detect stage's lag counts")
	}
}

// TestEnginesAgreeAtWordBoundaries: the bitset and FFT engines resolve
// phases by walking 64-bit match words one period block at a time, so
// periods on either side of a word boundary, and the extremes 1, n/2 and
// n−1, must give the naive engine's periodicities and patterns exactly,
// including at a threshold equal to an observed confidence.
func TestEnginesAgreeAtWordBoundaries(t *testing.T) {
	const n = 1000
	for _, sigma := range []int{2, 7} {
		rng := rand.New(rand.NewSource(int64(sigma)))
		motif := make([]uint16, 65)
		for i := range motif {
			motif[i] = uint16(rng.Intn(sigma))
		}
		idx := make([]uint16, n)
		for i := range idx {
			idx[i] = motif[i%len(motif)]
			if rng.Intn(3) == 0 {
				idx[i] = uint16(rng.Intn(sigma))
			}
		}
		idx[n-1] = idx[0] // period n−1 has one pair; make it match
		s := series.FromIndices(alphabet.Letters(sigma), idx)
		for _, p := range []int{1, 63, 64, 65, 127, 128, 129, n / 2, n - 1} {
			opt := Options{MinPeriod: p, MaxPeriod: p, MaxPatternPeriod: n, MaxPatterns: 300, Engine: EngineNaive}
			opt.Threshold = 0.01
			all, err := mine(s, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(all.Periodicities) == 0 {
				t.Fatalf("σ=%d p=%d: nothing detected; the case is vacuous", sigma, p)
			}
			observed := all.Periodicities[len(all.Periodicities)/2].Confidence
			for _, psi := range []float64{0.01, observed} {
				opt.Threshold, opt.Engine = psi, EngineNaive
				want, err := mine(s, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, eng := range []Engine{EngineBitset, EngineFFT} {
					opt.Engine = eng
					got, err := mine(s, opt)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Periodicities, want.Periodicities) {
						t.Errorf("σ=%d p=%d ψ=%v: %v periodicities differ from naive", sigma, p, psi, eng)
					}
					if !reflect.DeepEqual(got.Patterns, want.Patterns) {
						t.Errorf("σ=%d p=%d ψ=%v: %v patterns differ from naive", sigma, p, psi, eng)
					}
				}
			}
		}
	}
}
