package experiments

import (
	"strings"
	"testing"

	"periodica/internal/cimeg"
	"periodica/internal/gen"
	"periodica/internal/series"
	"periodica/internal/walmart"
)

var quickCorrectness = CorrectnessConfig{
	Length: 4000, Sigma: 10, Periods: []int{25, 32},
	Dists:     []gen.Distribution{gen.Uniform, gen.Normal},
	Multiples: 3, Runs: 2, Seed: 1,
}

func TestCorrectnessInerrantMinerIsPerfect(t *testing.T) {
	// Fig. 3(a): every point of every curve must be exactly 1 on inerrant
	// data.
	points, err := Correctness(quickCorrectness, MinerConfidence())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2*2*3 {
		t.Fatalf("got %d points, want 12", len(points))
	}
	for _, pt := range points {
		if pt.Confidence != 1 {
			t.Fatalf("inerrant %v P=%d %dP: confidence %v, want 1", pt.Dist, pt.Period, pt.Multiple, pt.Confidence)
		}
	}
}

func TestCorrectnessNoisyMinerStaysHigh(t *testing.T) {
	// Fig. 3(b): confidences drop under noise but remain above ~0.7, without
	// bias across multiples. Replacement noise is the regime of that figure;
	// insertion/deletion shift every later position and are studied
	// separately in Fig. 6, where the paper itself reports poor confidence.
	cfg := quickCorrectness
	cfg.Noise = gen.Replacement
	cfg.Ratio = 0.2
	points, err := Correctness(cfg, MinerConfidence())
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		if pt.Confidence >= 1 {
			t.Fatalf("noisy point still at 1: %+v", pt)
		}
		if pt.Confidence < 0.6 {
			t.Fatalf("noisy confidence collapsed: %+v", pt)
		}
	}
}

func TestCorrectnessTrendsBiasTowardLargePeriods(t *testing.T) {
	// Fig. 4(b): on noisy data the trends baseline favors larger multiples —
	// the normalized rank at 3P must not fall below the one at P.
	cfg := quickCorrectness
	cfg.Noise = gen.Replacement
	cfg.Ratio = 0.3
	cfg.Runs = 3
	points, err := Correctness(cfg, TrendsConfidence(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	byMult := map[int]float64{}
	for _, pt := range points {
		byMult[pt.Multiple] += pt.Confidence
	}
	if byMult[3] < byMult[1] {
		t.Fatalf("trends confidence at 3P (%v) below P (%v): bias not reproduced", byMult[3], byMult[1])
	}
}

func TestCorrectnessTrendsInerrantHighAtTruePeriod(t *testing.T) {
	// Fig. 4(a): on inerrant data the trends baseline also ranks P and its
	// multiples near the top.
	points, err := Correctness(quickCorrectness, TrendsConfidence(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		if pt.Confidence < 0.95 {
			t.Fatalf("inerrant trends confidence %v at %+v", pt.Confidence, pt)
		}
	}
}

func TestNoiseResilienceShape(t *testing.T) {
	// Fig. 6: replacement noise degrades confidence most gently; confidence
	// decreases with the ratio.
	points, err := NoiseResilience(NoiseConfig{
		Length: 4000, Sigma: 10, Period: 25, Dist: gen.Uniform,
		Kinds:  []gen.Noise{gen.Replacement, gen.Insertion | gen.Deletion},
		Ratios: []float64{0.1, 0.4},
		Runs:   2, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	conf := map[string]map[float64]float64{}
	for _, pt := range points {
		if conf[pt.Kind.String()] == nil {
			conf[pt.Kind.String()] = map[float64]float64{}
		}
		conf[pt.Kind.String()][pt.Ratio] = pt.Confidence
	}
	r := conf["R"]
	if r[0.4] > r[0.1] {
		t.Fatalf("replacement confidence increased with noise: %v", r)
	}
	if r[0.4] < conf["I+D"][0.4] {
		t.Fatalf("replacement (%v) should tolerate noise better than I+D (%v)", r[0.4], conf["I+D"][0.4])
	}
	if r[0.4] < 0.3 {
		t.Fatalf("replacement confidence at 40%% noise = %v, want ≥ 0.3 (paper: ~0.4 threshold usable at 50%%)", r[0.4])
	}
}

func TestTrendsBiasDiagnostic(t *testing.T) {
	// §4.1's Fig. 4(b) claim: under heavy noise the trends baseline ranks
	// the largest periods first (absolute distance shrinks with overlap)
	// while the true period sits mid-pack; the miner still detects it near
	// the paper's 40%-threshold-at-50%-noise operating point.
	stats, err := TrendsBias(20000, 25, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TrueRank < stats.Universe/10 {
		t.Fatalf("true period ranks %d of %d — bias not reproduced", stats.TrueRank, stats.Universe)
	}
	if stats.TopMedian < stats.Universe/2 {
		t.Fatalf("top-100 median period %d not in the large-period half (max %d)", stats.TopMedian, stats.Universe)
	}
	if stats.MinerConfidence < 0.35 {
		t.Fatalf("miner confidence %v at 50%% replacement noise, want ≥ 0.35", stats.MinerConfidence)
	}
}

func TestQualityMinerRanksExactPeriodFirst(t *testing.T) {
	rows, err := Quality(QualityConfig{Length: 4000, Period: 25, Sigma: 10,
		Ratios: []float64{0.3}, Runs: 2, TopK: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	byMethod := map[string]map[string]QualityRow{}
	for _, r := range rows {
		key := r.Noise.String()
		if byMethod[r.Method] == nil {
			byMethod[r.Method] = map[string]QualityRow{}
		}
		byMethod[r.Method][key] = r
	}
	miner := byMethod["miner (p-value)"]["R"]
	if miner.ExactAtK != 1 || miner.ExactRank != 1 {
		t.Fatalf("miner exact rank %+v, want rank 1 at 30%% noise", miner)
	}
	// The trends baseline must show its bias: the exact period ranks worse
	// than the miner's.
	tr := byMethod["trends (sketch)"]["R"]
	if tr.ExactRank <= miner.ExactRank {
		t.Fatalf("trends exact rank %v not worse than miner %v — bias not visible", tr.ExactRank, miner.ExactRank)
	}
}

func TestTimingProducesPositiveTimes(t *testing.T) {
	points, err := Timing([]int{2000, 4000}, func(n int) (*series.Series, error) {
		s, _, err := gen.Generate(gen.Config{Length: n, Period: 25, Sigma: 5, Dist: gen.Uniform, Seed: 3})
		return s, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	for _, pt := range points {
		if pt.MinerSecs <= 0 || pt.TrendsSecs <= 0 {
			t.Fatalf("non-positive timing: %+v", pt)
		}
	}
}

func TestPeriodTableWalmart(t *testing.T) {
	s := walmart.Series(walmart.Config{Months: 3, Seed: 4})
	rows, err := PeriodTable(s, []int{90, 70, 50}, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Monotone: lower thresholds admit at least as many periods.
	if rows[1].NumPeriods < rows[0].NumPeriods || rows[2].NumPeriods < rows[1].NumPeriods {
		t.Fatalf("period counts not monotone: %+v", rows)
	}
	// Table 1: period 24 detected at 70% or less.
	found := false
	for _, sp := range rows[1].Sample {
		if sp == 24 {
			found = true
		}
	}
	if !found && rows[1].NumPeriods <= 5 {
		t.Fatalf("period 24 not in 70%% sample: %+v", rows[1])
	}
}

func TestPeriodTableValidates(t *testing.T) {
	s := cimeg.Series(cimeg.Config{Days: 100, Seed: 5})
	if _, err := PeriodTable(s, nil, 40, 5); err == nil {
		t.Fatal("no thresholds: want error")
	}
	if _, err := PeriodTable(s, []int{0}, 40, 5); err == nil {
		t.Fatal("threshold 0: want error")
	}
	if _, err := PeriodTable(s, []int{101}, 40, 5); err == nil {
		t.Fatal("threshold 101: want error")
	}
}

func TestSinglePatternTableCimeg(t *testing.T) {
	s := cimeg.Series(cimeg.Config{Days: 365, Seed: 6})
	rows, err := SinglePatternTable(s, 7, []int{90, 70, 50, 30})
	if err != nil {
		t.Fatal(err)
	}
	// Nesting: patterns at a higher threshold are included at lower ones.
	for i := 1; i < len(rows); i++ {
		prev := map[string]bool{}
		for _, p := range rows[i].Patterns {
			prev[p] = true
		}
		for _, p := range rows[i-1].Patterns {
			if !prev[p] {
				t.Fatalf("pattern %s at %d%% missing at %d%%", p, rows[i-1].ThresholdPct, rows[i].ThresholdPct)
			}
		}
	}
	// The away-day pattern (a,3) must appear by 40%.
	last := rows[len(rows)-1]
	found := false
	for _, p := range last.Patterns {
		if p == "(a,3)" {
			found = true
		}
	}
	if !found {
		t.Fatalf("(a,3) missing at %d%%: %v", last.ThresholdPct, last.Patterns)
	}
}

func TestPatternTableWalmart(t *testing.T) {
	s := walmart.Series(walmart.Config{Months: 15, Seed: 7})
	rows, err := PatternTable(s, 24, 0.35, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no multi-symbol patterns at ψ=35% (paper's Table 3 setting)")
	}
	for _, row := range rows {
		if row.SupportPct < 35 {
			t.Fatalf("pattern %s below threshold: %v%%", row.Pattern, row.SupportPct)
		}
		if len(row.Pattern) != 24 {
			t.Fatalf("pattern %q not of period length 24", row.Pattern)
		}
	}
}

func TestRenderers(t *testing.T) {
	var b strings.Builder
	RenderCorrectness(&b, "fig3a", []CorrectnessPoint{
		{Dist: gen.Uniform, Period: 25, Multiple: 1, Confidence: 1},
		{Dist: gen.Uniform, Period: 25, Multiple: 2, Confidence: 0.9},
	})
	if !strings.Contains(b.String(), "U, P=25") || !strings.Contains(b.String(), "1.000") {
		t.Fatalf("RenderCorrectness output:\n%s", b.String())
	}

	b.Reset()
	RenderNoise(&b, "fig6", []NoisePoint{{Kind: gen.Replacement, Ratio: 0.1, Confidence: 0.8}})
	if !strings.Contains(b.String(), "R") || !strings.Contains(b.String(), "0.800") {
		t.Fatalf("RenderNoise output:\n%s", b.String())
	}

	b.Reset()
	RenderTiming(&b, "fig5", []TimingPoint{{N: 1000, MinerSecs: 0.5, TrendsSecs: 1.0}})
	if !strings.Contains(b.String(), "2.00x") {
		t.Fatalf("RenderTiming output:\n%s", b.String())
	}

	b.Reset()
	RenderPeriodTable(&b, "t1", []PeriodRow{{ThresholdPct: 90, NumPeriods: 2, Sample: []int{24, 168}}})
	if !strings.Contains(b.String(), "24, 168") {
		t.Fatalf("RenderPeriodTable output:\n%s", b.String())
	}

	b.Reset()
	RenderSinglePatternTable(&b, "t2", []SinglePatternRow{{ThresholdPct: 80, Patterns: []string{"(b,7)"}}})
	if !strings.Contains(b.String(), "(b,7)") {
		t.Fatalf("RenderSinglePatternTable output:\n%s", b.String())
	}

	b.Reset()
	RenderPatternTable(&b, "t3", []PatternRow{{Pattern: "aaa***", SupportPct: 42.5}})
	if !strings.Contains(b.String(), "42.50%") {
		t.Fatalf("RenderPatternTable output:\n%s", b.String())
	}
}
