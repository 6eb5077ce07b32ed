package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"periodica/internal/conv"
	"periodica/internal/core"
)

func TestEngineAblationShape(t *testing.T) {
	rows, err := EngineAblation([]int{1000, 2000}, 0.7, 1500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if math.IsNaN(rows[0].NaiveSecs) {
		t.Fatal("naive skipped below the limit")
	}
	if !math.IsNaN(rows[1].NaiveSecs) {
		t.Fatal("naive not skipped above the limit")
	}
	for _, r := range rows {
		if r.BitsetSecs <= 0 || r.FFTSecs <= 0 || r.ParallelSecs <= 0 {
			t.Fatalf("non-positive timing: %+v", r)
		}
	}
	var b strings.Builder
	RenderEngineAblation(&b, "t", rows)
	if !strings.Contains(b.String(), "bitset") || !strings.Contains(b.String(), "-") {
		t.Fatalf("render: %s", b.String())
	}
}

func TestSketchAblationErrorDecays(t *testing.T) {
	rows, err := SketchAblation(4096, []int{2, 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].MeanRelErr >= rows[0].MeanRelErr {
		t.Fatalf("sketch error did not decay with repetitions: %+v", rows)
	}
	var b strings.Builder
	RenderSketchAblation(&b, "t", rows)
	if !strings.Contains(b.String(), "%") {
		t.Fatalf("render: %s", b.String())
	}
}

func TestPruneAblationMinPairsBites(t *testing.T) {
	rows, err := PruneAblation(4096, []int{60}, []int{1, 16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].Survivors >= rows[0].Survivors {
		t.Fatalf("MinPairs=16 did not prune more than MinPairs=1: %+v", rows)
	}
	if rows[0].Total != rows[1].Total {
		t.Fatal("totals differ across MinPairs")
	}
	var b strings.Builder
	RenderPruneAblation(&b, "t", rows)
	if !strings.Contains(b.String(), "survivors") {
		t.Fatalf("render: %s", b.String())
	}
}

// TestPruneAblationMatchesDetector pins the ablation's survivor count to the
// detector's own sweep on a 1% threshold grid, where some aggregate ratios
// r/minPairs land exactly on ψ: there the product form r ≥ ψ·minPairs can
// round the wrong way and under-count.
func TestPruneAblationMatchesDetector(t *testing.T) {
	const length, seed = 2048, 1
	pcts := make([]int, 99)
	for i := range pcts {
		pcts[i] = i + 1
	}
	minPairs := []int{1, 4}
	rows, err := PruneAblation(length, pcts, minPairs, seed)
	if err != nil {
		t.Fatal(err)
	}
	s, err := noisySeries(length, seed)
	if err != nil {
		t.Fatal(err)
	}
	lag := conv.LagMatchCounts(s)
	boundary := 0
	for _, row := range rows {
		opt := core.Options{Threshold: float64(row.ThresholdPct) / 100, MinPairs: row.MinPairs,
			Engine: core.EngineFFT, MaxPatternPeriod: -1}
		surv, err := core.ShardSurvivors(context.Background(), s, opt)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, ks := range surv {
			want += len(ks)
		}
		if row.Survivors != want {
			t.Errorf("ψ=%d%% minPairs=%d: ablation counts %d survivors, detector %d",
				row.ThresholdPct, row.MinPairs, row.Survivors, want)
		}
		for p := 1; p <= length/2; p++ {
			floor := max(length/p-1, row.MinPairs)
			for k := range lag {
				if lag[k][p] > 0 && lag[k][p]*100 == int64(row.ThresholdPct*floor) {
					boundary++
				}
			}
		}
	}
	if boundary == 0 {
		t.Fatal("no aggregate ratio lands exactly on a grid threshold; the test checks nothing")
	}
}
