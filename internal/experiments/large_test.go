package experiments

import (
	"context"
	"os"
	"testing"

	"periodica/internal/core"
	"periodica/internal/gen"
	"periodica/internal/trends"
)

// TestPaperScaleSmoke exercises the paper's actual scale — 1M symbols,
// σ = 10 — end to end: inerrant confidence must be exactly 1 at P and its
// multiples, 50% replacement noise must land at the paper's ~0.4 operating
// point, and both detection phases must complete. Gated behind
// PERIODICA_LARGE=1 to keep the default suite fast.
func TestPaperScaleSmoke(t *testing.T) {
	if os.Getenv("PERIODICA_LARGE") == "" {
		t.Skip("set PERIODICA_LARGE=1 to run the 1M-symbol smoke test")
	}
	const n = 1_000_000

	s, _, err := gen.Generate(gen.Config{Length: n, Period: 25, Sigma: 10, Dist: gen.Uniform, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{25, 50, 75} {
		if conf := core.PeriodConfidence(s, p); conf != 1 {
			t.Fatalf("inerrant confidence at %d = %v, want 1", p, conf)
		}
	}

	noisy, _, err := gen.Generate(gen.Config{Length: n, Period: 25, Sigma: 10, Dist: gen.Uniform,
		Noise: gen.Replacement, NoiseRatio: 0.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	conf := core.PeriodConfidence(noisy, 25)
	if conf < 0.35 || conf > 0.5 {
		t.Fatalf("50%% noise confidence %v, want ≈0.4 (paper's operating point)", conf)
	}

	if _, err := core.DetectCandidatesContext(context.Background(), noisy, 0.8, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := trends.Sketched(noisy, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
}
