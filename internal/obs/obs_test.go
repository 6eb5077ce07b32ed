package obs

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	var g Gauge
	g.Inc()
	g.Inc()
	g.Dec()
	if g.Value() != 1 {
		t.Fatalf("gauge = %d, want 1", g.Value())
	}
	g.Set(42)
	if g.Value() != 42 {
		t.Fatalf("gauge = %d, want 42", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(0.01, 0.1, 1)
	h.Observe(5 * time.Millisecond)   // ≤ 0.01
	h.Observe(50 * time.Millisecond)  // ≤ 0.1
	h.Observe(500 * time.Millisecond) // ≤ 1
	h.Observe(5 * time.Second)        // +Inf
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	wantCounts := []int64{1, 1, 1, 1}
	for i, want := range wantCounts {
		if got := h.counts[i].Load(); got != want {
			t.Errorf("bucket %d = %d, want %d", i, got, want)
		}
	}
	var b strings.Builder
	h.renderBuckets(&b, "m", `endpoint="/x"`)
	text := b.String()
	for _, line := range []string{
		`m_bucket{endpoint="/x",le="0.01"} 1`,
		`m_bucket{endpoint="/x",le="0.1"} 2`,
		`m_bucket{endpoint="/x",le="1"} 3`,
		`m_bucket{endpoint="/x",le="+Inf"} 4`,
		`m_count{endpoint="/x"} 4`,
	} {
		if !strings.Contains(text, line) {
			t.Errorf("rendering missing %q:\n%s", line, text)
		}
	}
}

func TestHistogramBoundaryLandsInBucket(t *testing.T) {
	h := NewHistogram(0.01, 0.1)
	h.Observe(10 * time.Millisecond) // exactly the first upper bound
	if got := h.counts[0].Load(); got != 1 {
		t.Fatalf("boundary observation in bucket 0 = %d, want 1", got)
	}
}

func TestEndpointStatusClasses(t *testing.T) {
	r := NewRegistry()
	e := r.Endpoint("/v1/mine")
	e.ObserveRequest(200, time.Millisecond)
	e.ObserveRequest(204, time.Millisecond)
	e.ObserveRequest(400, time.Millisecond)
	e.ObserveRequest(499, time.Millisecond)
	e.ObserveRequest(504, time.Millisecond)
	e.ObserveRequest(777, time.Millisecond) // out of range → 5xx
	if got := e.Requests("2xx"); got != 2 {
		t.Errorf("2xx = %d, want 2", got)
	}
	if got := e.Requests("4xx"); got != 2 {
		t.Errorf("4xx = %d, want 2", got)
	}
	if got := e.Requests("5xx"); got != 2 {
		t.Errorf("5xx = %d, want 2", got)
	}
}

func TestRegistryRenderText(t *testing.T) {
	r := NewRegistry()
	r.InFlight().Inc()
	e := r.Endpoint("/v1/mine")
	e.ObserveRequest(200, 3*time.Millisecond)
	e.ObserveMine(2 * time.Millisecond)
	r.Endpoint("/healthz").ObserveRequest(200, time.Microsecond)

	text := r.RenderText()
	for _, line := range []string{
		"periodica_http_in_flight 1",
		`periodica_http_requests_total{endpoint="/healthz",class="2xx"} 1`,
		`periodica_http_requests_total{endpoint="/v1/mine",class="2xx"} 1`,
		`periodica_http_request_duration_seconds_count{endpoint="/v1/mine"} 1`,
		`periodica_mine_duration_seconds_count{endpoint="/v1/mine"} 1`,
	} {
		if !strings.Contains(text, line) {
			t.Errorf("render missing %q:\n%s", line, text)
		}
	}
	// /healthz never mined, so it must not emit a mine histogram.
	if strings.Contains(text, `periodica_mine_duration_seconds_count{endpoint="/healthz"}`) {
		t.Error("healthz should have no mine histogram")
	}
	// Endpoints render in sorted order.
	if strings.Index(text, `endpoint="/healthz"`) > strings.Index(text, `endpoint="/v1/mine"`) {
		t.Error("endpoints not sorted")
	}
}

// TestRenderFFTKernelMetrics: the FFT kernel counters render from every
// registry with the full label set even at zero, so scrape schemas never
// depend on which kernels have run.
func TestRenderFFTKernelMetrics(t *testing.T) {
	text := NewRegistry().RenderText()
	for _, line := range []string{
		"# TYPE periodica_fft_kernel_total counter",
		`periodica_fft_kernel_total{kernel="radix2"}`,
		`periodica_fft_kernel_total{kernel="real"}`,
		`periodica_fft_kernel_total{kernel="batch"}`,
	} {
		if !strings.Contains(text, line) {
			t.Errorf("render missing %q:\n%s", line, text)
		}
	}

	before := FFT().KernelReal.Value()
	FFT().KernelReal.Inc()
	want := fmt.Sprintf("periodica_fft_kernel_total{kernel=\"real\"} %d", before+1)
	if text := NewRegistry().RenderText(); !strings.Contains(text, want) {
		t.Errorf("render missing %q after increment", want)
	}
	if strings.Contains(text, "fourstep") || strings.Contains(text, "autotune") {
		t.Errorf("render still carries deleted kernel or autotune metrics:\n%s", text)
	}
}

func TestRegistryHandler(t *testing.T) {
	r := NewRegistry()
	r.Endpoint("/v1/mine").ObserveRequest(200, time.Millisecond)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "periodica_http_requests_total") {
		t.Fatalf("body missing requests_total:\n%s", rec.Body.String())
	}
}

// TestConcurrentObservation exercises the atomics under the race detector.
func TestConcurrentObservation(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.InFlight().Inc()
				e := r.Endpoint("/v1/mine")
				e.ObserveRequest(200, time.Duration(i)*time.Microsecond)
				e.ObserveMine(time.Duration(i) * time.Microsecond)
				r.InFlight().Dec()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = r.RenderText()
		}
	}()
	wg.Wait()
	<-done
	if got := r.Endpoint("/v1/mine").Requests("2xx"); got != 8000 {
		t.Fatalf("2xx = %d, want 8000", got)
	}
	if got := r.InFlight().Value(); got != 0 {
		t.Fatalf("in-flight = %d, want 0", got)
	}
}

func TestRecoveryMetricsRender(t *testing.T) {
	before := Recovery().SummariesRebuilt.Value()
	Recovery().SummariesRebuilt.Inc()
	Recovery().FilesQuarantined.Inc()

	text := NewRegistry().RenderText()
	want := fmt.Sprintf(`periodica_store_recovery_events_total{event="summary_rebuilt"} %d`, before+1)
	if !strings.Contains(text, want) {
		t.Errorf("render missing %q:\n%s", want, text)
	}
	// Every event label renders even at zero, so dashboards can rate() them
	// from process start.
	for _, label := range []string{"file_quarantined", "checksum_failure", "stray_temp_removed", "repair_action"} {
		if !strings.Contains(text, `event="`+label+`"`) {
			t.Errorf("render missing recovery event %q:\n%s", label, text)
		}
	}
}

// TestHistogramScrapeCoherence hammers Observe from several goroutines while
// scraping, and checks every scrape against the Prometheus invariants: the
// cumulative bucket series is non-decreasing, the +Inf bucket equals _count,
// and the rendered _sum covers at least the observations _count includes
// (every observation here is exactly 1ms, so sum ≥ count × 1ms).
func TestHistogramScrapeCoherence(t *testing.T) {
	h := NewHistogram(0.0005, 0.002, 0.01)
	const (
		writers = 4
		perW    = 5000
	)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < perW; i++ {
				h.Observe(time.Millisecond)
			}
		}()
	}
	close(start)
	parse := func(text string) (buckets []int64, count int64, sum float64) {
		for _, line := range strings.Split(text, "\n") {
			switch {
			case strings.HasPrefix(line, "m_bucket"):
				var v int64
				if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &v); err != nil {
					t.Fatalf("parse %q: %v", line, err)
				}
				buckets = append(buckets, v)
			case strings.HasPrefix(line, "m_count"):
				if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &count); err != nil {
					t.Fatalf("parse %q: %v", line, err)
				}
			case strings.HasPrefix(line, "m_sum"):
				if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &sum); err != nil {
					t.Fatalf("parse %q: %v", line, err)
				}
			}
		}
		return buckets, count, sum
	}
	for i := 0; i < 200; i++ {
		var b strings.Builder
		h.renderBuckets(&b, "m", "")
		buckets, count, sum := parse(b.String())
		if len(buckets) != 4 {
			t.Fatalf("scrape %d: %d buckets, want 4", i, len(buckets))
		}
		for j := 1; j < len(buckets); j++ {
			if buckets[j] < buckets[j-1] {
				t.Fatalf("scrape %d: cumulative buckets decrease: %v", i, buckets)
			}
		}
		if buckets[len(buckets)-1] != count {
			t.Fatalf("scrape %d: +Inf bucket %d != _count %d", i, buckets[len(buckets)-1], count)
		}
		if sum < float64(count)*0.001-1e-9 {
			t.Fatalf("scrape %d: _sum %g does not cover _count %d × 1ms", i, sum, count)
		}
	}
	wg.Wait()
	var b strings.Builder
	h.renderBuckets(&b, "m", "")
	_, count, _ := parse(b.String())
	if want := int64(writers * perW); count != want {
		t.Fatalf("final _count = %d, want %d", count, want)
	}
}

// TestDistMetricsRender: the distributed-tier families render from every
// registry even before a coordinator has run, and per-worker shard counters
// appear once a shard completes.
func TestDistMetricsRender(t *testing.T) {
	text := NewRegistry().RenderText()
	for _, line := range []string{
		"# TYPE periodica_dist_shards_total counter",
		"# TYPE periodica_dist_retries_total counter",
		"# TYPE periodica_dist_hedges_total counter",
		"# TYPE periodica_dist_local_fallbacks_total counter",
		"# TYPE periodica_dist_integrity_failures_total counter",
		"# TYPE periodica_dist_verify_mismatches_total counter",
		"# TYPE periodica_dist_breaker_opens_total counter",
		"# TYPE periodica_dist_resumed_mines_total counter",
		"# TYPE periodica_dist_resumed_shards_total counter",
		"# TYPE periodica_dist_shard_duration_seconds histogram",
		"periodica_dist_shard_duration_seconds_count",
	} {
		if !strings.Contains(text, line) {
			t.Errorf("render missing %q:\n%s", line, text)
		}
	}

	before := Dist().WorkerShards("http://w1:8723").Value()
	retriesBefore := Dist().Retries.Value()
	Dist().ObserveShard("http://w1:8723", 5*time.Millisecond)
	Dist().Retries.Inc()
	text = NewRegistry().RenderText()
	want := fmt.Sprintf(`periodica_dist_shards_total{worker="http://w1:8723"} %d`, before+1)
	if !strings.Contains(text, want) {
		t.Errorf("render missing %q:\n%s", want, text)
	}
	want = fmt.Sprintf("periodica_dist_retries_total %d", retriesBefore+1)
	if !strings.Contains(text, want) {
		t.Errorf("render missing %q:\n%s", want, text)
	}
}

func TestRegistryMineDurations(t *testing.T) {
	r := NewRegistry()
	if count, sum := r.MineDurations(); count != 0 || sum != 0 {
		t.Fatalf("empty registry MineDurations = (%d, %v), want (0, 0)", count, sum)
	}
	r.Endpoint("/v1/mine").ObserveMine(2 * time.Second)
	r.Endpoint("/v1/candidates").ObserveMine(1 * time.Second)
	count, sum := r.MineDurations()
	if count != 2 || sum != 3*time.Second {
		t.Fatalf("MineDurations = (%d, %v), want (2, 3s)", count, sum)
	}
}
