package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6},
	} {
		if got := percentile(v, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", v, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if v[0] != 5 {
		t.Errorf("percentile reordered its input: %v", v)
	}
}

// The reference values are Python's statistics.quantiles(v, n=4), the rule
// the benchmark's spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 1, 4, 2, 3, 9, 7, 8, 6, 10}, 2.75, 8.25},
		{[]float64{2.5, 2.5, 2.5}, 2.5, 2.5},
	} {
		q1, q3 := quartiles(c.v)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{5, 1, 4, 2, 3, 9, 7, 8, 6, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestSummarizeMediansOverRoundsPercentilesPooled(t *testing.T) {
	round := func(setup float64, lat ...float64) *roundResult {
		return &roundResult{
			SetupS: setup, Attempted: len(lat) + 1, RSSP90MB: setup * 100,
			CalibMs:  []float64{calibRefMs, calibRefMs},
			Segments: []segment{{LatencyMs: lat, WindowS: 2, CPUS: 0.1 * float64(len(lat))}},
		}
	}
	rs := []*roundResult{
		round(0.3, 10, 20),
		round(0.1, 30, 40, 50, 60),
		round(0.2, 70, 80, 90, 100),
	}
	rs[1].AllocB, rs[1].RespB = []uint64{1 << 20, 3 << 20}, []int{1024, 3072}
	wr, err := summarize(rs)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"setup_s":         0.2, // median of 0.3, 0.1, 0.2
		"latency_p50_ms":  55,  // p50 of all ten samples pooled, not the median of round p50s (45)
		"latency_p90_ms":  91,  // likewise pooled
		"throughput_ops":  2,   // median of 1, 2, 2 requests per second
		"cpu_ms_per_op":   100, // 0.1 s of CPU per request in every round
		"alloc_mb_per_op": 2,   // mean of the alloc pass's 1 and 3 MiB
		"resp_kb_per_op":  2,   // mean of its 1 and 3 KiB
		"rss_p90_mb":      20,  // median of 30, 10, 20 MiB
	} {
		if got := wr.E2E[name].Value; !near(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if wr.Samples != 10 || wr.Attempted != 13 || wr.ErrorRatio != 0 {
		t.Errorf("samples %d attempted %d error ratio %v, want 10, 13, 0", wr.Samples, wr.Attempted, wr.ErrorRatio)
	}
	for _, d := range e2eMetrics {
		if m, ok := wr.E2E[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("metric %s missing or with unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
	rs[1].AllocB = nil
	if _, err := summarize(rs); err == nil {
		t.Error("summarize accepted rounds of which none ran the alloc pass")
	}
}

// TestSummarizeAdjustsTimingsToReferenceHost checks that set-up is scaled by
// the calibration reading after it and each segment by the readings around
// it: the readings after set-up and after the first segment are twice the
// reference time, the one after the second segment 8 times, so the second
// segment is scaled by 1/4, their geometric mean. Sizes are left alone.
func TestSummarizeAdjustsTimingsToReferenceHost(t *testing.T) {
	round := func(calib ...float64) *roundResult {
		return &roundResult{
			SetupS: 0.4, Attempted: 3, RSSP90MB: 50, CalibMs: calib,
			Segments: []segment{
				{LatencyMs: []float64{60, 60}, WindowS: 1, CPUS: 0.12},
				{LatencyMs: []float64{60}, WindowS: 0.5, CPUS: 0.06},
			},
			AllocB: []uint64{1 << 20}, RespB: []int{2048},
		}
	}
	wr, err := summarize([]*roundResult{round(2*calibRefMs, 2*calibRefMs, 8*calibRefMs)})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"setup_s":         0.2,
		"latency_p50_ms":  30,              // of 30, 30 and 15
		"latency_p90_ms":  30,              // likewise
		"throughput_ops":  3 / 0.625,       // 1 s at half speed and 0.5 s at a quarter
		"cpu_ms_per_op":   (60 + 15) / 3.0, // 120 ms halved and 60 ms quartered
		"alloc_mb_per_op": 1,
		"resp_kb_per_op":  2,
		"rss_p90_mb":      50,
	} {
		if got := wr.E2E[name].Value; !near(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if _, err := summarize([]*roundResult{round(calibRefMs, 0, calibRefMs)}); err == nil {
		t.Error("summarize accepted a calibration time of 0")
	}
	if _, err := summarize([]*roundResult{round(calibRefMs, calibRefMs)}); err == nil {
		t.Error("summarize accepted a round with a calibration reading missing")
	}
}

func TestUnionLengthCountsOverlapOnce(t *testing.T) {
	for _, c := range []struct {
		iv   []interval
		want int64
	}{
		{nil, 0},
		{[]interval{{10, 20}}, 10},
		{[]interval{{10, 20}, {30, 35}}, 15},           // disjoint
		{[]interval{{30, 40}, {10, 25}, {20, 35}}, 30}, // chained overlaps, unsorted
		{[]interval{{10, 50}, {20, 30}}, 40},           // nested
		{[]interval{{10, 20}, {20, 30}}, 20},           // touching
	} {
		if got := unionLength(c.iv); got != c.want {
			t.Errorf("unionLength(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
	// A coordinator span of 100 with two workers' shards overlapping over
	// [20, 70] has 50 of its own.
	mine := interval{0, 100}
	shards := []interval{{20, 50}, {40, 70}}
	if self := (mine.end - mine.start) - unionLength(shards); self != 50 {
		t.Errorf("self time = %d, want 50", self)
	}
}

func TestLogLogSlope(t *testing.T) {
	n := []float64{512, 1024, 2048}
	for _, c := range []struct {
		y    []float64
		want float64
	}{
		{[]float64{1, 2, 4}, 1},
		{[]float64{3, 12, 48}, 2},
		{[]float64{0, 0, 0}, 0}, // nothing measurable
	} {
		if got := logLogSlope(n, c.y); !near(got, c.want) {
			t.Errorf("logLogSlope(%v) = %v, want %v", c.y, got, c.want)
		}
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		name   string
		a, b   []float64
		bound  float64
		higher bool
		want   string
	}{
		{"within bound", []float64{100, 101}, []float64{104, 105}, 0.1, false, "unchanged"},
		{"slower", []float64{100, 101}, []float64{120, 121}, 0.1, false, "worse"},
		{"faster", []float64{100, 101}, []float64{80, 81}, 0.1, false, "improved"},
		{"throughput up", []float64{100, 101}, []float64{120, 121}, 0.1, true, "improved"},
		{"throughput down", []float64{100, 101}, []float64{80, 81}, 0.1, true, "worse"},
		{"baseline too noisy", []float64{80, 120}, []float64{95, 125}, 0.1, false, "unresolved"},
		{"noisy but every run better", []float64{80, 120}, []float64{20, 25}, 0.1, false, "improved"},
	} {
		if got := classify(c.a, c.b, c.bound, c.higher); got != c.want {
			t.Errorf("%s: classify(%v, %v) = %s, want %s", c.name, c.a, c.b, got, c.want)
		}
	}
}

// TestErrorVerdictCountsAnyWrongRun checks that one run with wrong answers
// makes a ledger worse even when the median run is clean.
func TestErrorVerdictCountsAnyWrongRun(t *testing.T) {
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{[]float64{0, 0, 0}, "unchanged"},
		{[]float64{0, 0.01, 0}, "worse"},
		{[]float64{0.5}, "worse"},
	} {
		if got := errorVerdict(c.b); got != c.want {
			t.Errorf("errorVerdict(%v) = %s, want %s", c.b, got, c.want)
		}
	}
}
