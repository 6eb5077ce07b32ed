// Package obs provides the stdlib-only observability layer of the serving
// path: atomic counters and gauges, fixed-bucket latency histograms, and a
// registry that renders everything in the Prometheus plaintext exposition
// format. No third-party client library is required — the types here are a
// few atomics wide and safe for concurrent use on the hot path.
package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter, safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be ≥ 0 to keep the counter monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down, safe for concurrent use.
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// defaultBuckets are the histogram upper bounds in seconds, spanning the
// sub-millisecond decode path through multi-second mines.
var defaultBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Histogram is a fixed-bucket duration histogram, safe for concurrent use.
// Observations land in the first bucket whose upper bound (in seconds) is
// not exceeded; an implicit +Inf bucket catches the rest. The bounds are
// immutable after construction, so observation is a bucket search plus three
// atomic adds — no locks on the hot path.
type Histogram struct {
	bounds   []float64 // ascending upper bounds, seconds
	counts   []atomic.Int64
	sumNanos atomic.Int64
	count    atomic.Int64
}

// NewHistogram returns a histogram over the given ascending upper bounds in
// seconds; with no bounds the default request-latency buckets are used.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		bounds = defaultBuckets
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one duration. The sum is written before the bucket count:
// renderBuckets reads the buckets first and the sum last, so every
// observation visible in a rendered bucket has its duration visible in the
// rendered sum (the scrape never shows a bucketed observation with a missing
// sum contribution).
func (h *Histogram) Observe(d time.Duration) {
	secs := d.Seconds()
	i := sort.SearchFloat64s(h.bounds, secs)
	h.sumNanos.Add(int64(d))
	h.counts[i].Add(1)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total observed time.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNanos.Load()) }

// renderBuckets writes the cumulative bucket counts, sum, and count under
// the given metric name and label set (labels may be empty).
//
// Observations may land concurrently with a scrape, so the render works from
// one coherent snapshot: every bucket is loaded exactly once and _count is
// the sum of those loads, which guarantees the Prometheus invariants — the
// cumulative series is non-decreasing and the +Inf bucket equals _count —
// no matter how many observations race the scrape. The sum is loaded after
// the buckets (and Observe writes it before them), so the rendered _sum
// covers at least every observation the rendered _count includes.
func (h *Histogram) renderBuckets(b *strings.Builder, name, labels string) {
	sep := ","
	if labels == "" {
		sep = ""
	}
	snap := make([]int64, len(h.counts))
	for i := range h.counts {
		snap[i] = h.counts[i].Load()
	}
	sum := time.Duration(h.sumNanos.Load())
	var cum int64
	for i, ub := range h.bounds {
		cum += snap[i]
		b.WriteString(fmt.Sprintf("%s_bucket{%s%sle=%q} %d\n", name, labels, sep,
			strconv.FormatFloat(ub, 'g', -1, 64), cum))
	}
	cum += snap[len(h.bounds)]
	b.WriteString(fmt.Sprintf("%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum))
	if labels == "" {
		b.WriteString(fmt.Sprintf("%s_sum %s\n", name, formatSeconds(sum)))
		b.WriteString(fmt.Sprintf("%s_count %d\n", name, cum))
		return
	}
	b.WriteString(fmt.Sprintf("%s_sum{%s} %s\n", name, labels, formatSeconds(sum)))
	b.WriteString(fmt.Sprintf("%s_count{%s} %d\n", name, labels, cum))
}

func formatSeconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}

// RecoveryMetrics counts the durability and recovery events of the embedded
// store — summaries rebuilt from raw segments, files
// quarantined by the torn-tail recovery pass, checksum failures observed,
// stray commit temp files swept, and repair actions applied. The counters
// are process-wide (recovery happens at Open time, often before any registry
// exists) and are rendered by every Registry.
type RecoveryMetrics struct {
	SummariesRebuilt  Counter
	FilesQuarantined  Counter
	ChecksumFailures  Counter
	StrayTempsRemoved Counter
	RepairActions     Counter
}

var recoveryMetrics RecoveryMetrics

// Recovery returns the process-wide durability/recovery counters.
func Recovery() *RecoveryMetrics { return &recoveryMetrics }

// renderRecovery writes the recovery counters in exposition format.
func (m *RecoveryMetrics) renderRecovery(b *strings.Builder) {
	b.WriteString("# TYPE periodica_store_recovery_events_total counter\n")
	for _, ev := range []struct {
		label string
		c     *Counter
	}{
		{"summary_rebuilt", &m.SummariesRebuilt},
		{"file_quarantined", &m.FilesQuarantined},
		{"checksum_failure", &m.ChecksumFailures},
		{"stray_temp_removed", &m.StrayTempsRemoved},
		{"repair_action", &m.RepairActions},
	} {
		b.WriteString(fmt.Sprintf("periodica_store_recovery_events_total{event=%q} %d\n",
			ev.label, ev.c.Value()))
	}
}

// ExecMetrics instruments the staged execution pipeline (internal/exec and
// the mining session built on it): one duration histogram per pipeline stage
// and a gauge of work items queued but not yet claimed by a scheduler
// worker. The metrics are process-wide (sessions are built below the serving
// layer, often with no registry in sight) and are rendered by every
// Registry.
type ExecMetrics struct {
	mu     sync.Mutex
	stages map[string]*Histogram
	queue  Gauge
}

var execMetrics ExecMetrics //opvet:racesafe counters and gauges are atomics; the histogram map is mutex-guarded

// Exec returns the process-wide pipeline metrics.
func Exec() *ExecMetrics { return &execMetrics }

// ObserveStage records one run of the named pipeline stage.
func (m *ExecMetrics) ObserveStage(stage string, d time.Duration) {
	m.mu.Lock()
	if m.stages == nil {
		m.stages = map[string]*Histogram{}
	}
	h := m.stages[stage]
	if h == nil {
		h = NewHistogram()
		m.stages[stage] = h
	}
	m.mu.Unlock()
	h.Observe(d)
}

// StageCount returns the number of recorded runs of the named stage.
func (m *ExecMetrics) StageCount(stage string) int64 {
	m.mu.Lock()
	h := m.stages[stage]
	m.mu.Unlock()
	if h == nil {
		return 0
	}
	return h.Count()
}

// QueueDepth returns the gauge of scheduler work items that are queued but
// not yet claimed by a worker.
func (m *ExecMetrics) QueueDepth() *Gauge { return &m.queue }

// renderExec writes the pipeline metrics in exposition format. Both metric
// families render even before any stage has run, so scrapes always see a
// stable schema.
func (m *ExecMetrics) renderExec(b *strings.Builder) {
	b.WriteString("# TYPE periodica_exec_queue_depth gauge\n")
	b.WriteString(fmt.Sprintf("periodica_exec_queue_depth %d\n", m.queue.Value()))
	b.WriteString("# TYPE periodica_stage_duration_seconds histogram\n")
	m.mu.Lock()
	names := make([]string, 0, len(m.stages))
	for name := range m.stages {
		names = append(names, name)
	}
	sort.Strings(names)
	hs := make([]*Histogram, 0, len(names))
	for _, name := range names {
		hs = append(hs, m.stages[name])
	}
	m.mu.Unlock()
	for i, name := range names {
		hs[i].renderBuckets(b, "periodica_stage_duration_seconds", fmt.Sprintf("stage=%q", name))
	}
}

// FFTMetrics counts kernel executions on the convolution hot path — radix-2/4
// transforms and real-input kernel entries. The
// counters are process-wide (the FFT layer sits far below any registry) and
// are rendered by every Registry, so the /metrics schema is stable whether or
// not a kernel has run.
type FFTMetrics struct {
	KernelRadix2 Counter
	// KernelFourStep is never incremented; it stays because the serving
	// benchmark's kernel-call sum still reads it.
	KernelFourStep Counter
	KernelReal     Counter
	// KernelBatch is never incremented since the pair transforms were
	// deleted; it stays, rendered as the "batch" row, because the serving
	// benchmark's kernel-call sum still reads it.
	KernelBatch Counter
}

var fftMetrics FFTMetrics

// FFT returns the process-wide FFT kernel metrics.
func FFT() *FFTMetrics { return &fftMetrics }

// renderFFT writes the FFT kernel metrics in exposition format. Every label
// renders even at zero so scrapes always see the full kernel set.
func (m *FFTMetrics) renderFFT(b *strings.Builder) {
	b.WriteString("# TYPE periodica_fft_kernel_total counter\n")
	for _, k := range []struct {
		label string
		c     *Counter
	}{
		{"radix2", &m.KernelRadix2},
		{"real", &m.KernelReal},
		{"batch", &m.KernelBatch},
	} {
		b.WriteString(fmt.Sprintf("periodica_fft_kernel_total{kernel=%q} %d\n",
			k.label, k.c.Value()))
	}
}

// DistMetrics instruments the distributed sharded mining tier: how many
// shards each worker completed, how often shards were retried after a worker
// failure, how often a straggling shard was hedged to a second worker, how
// often the coordinator fell back to computing a shard locally, and the
// round-trip latency of completed remote shards. The metrics are
// process-wide (the coordinator runs below the serving layer) and are
// rendered by every Registry, so the /metrics schema is stable whether or
// not a distributed mine has run.
type DistMetrics struct {
	mu      sync.Mutex
	workers map[string]*Counter
	latency *Histogram

	Retries        Counter
	Hedges         Counter
	LocalFallbacks Counter
	// IntegrityFailures counts shard responses that arrived but could not be
	// trusted: undecodable bodies, checksum mismatches, wrong echoes. Each is
	// retried, so a nonzero rate with zero failed mines means the integrity
	// layer is absorbing corruption, not that data was lost.
	IntegrityFailures Counter
	// VerifyMismatches counts sampled double-dispatch verifications whose two
	// workers returned different bytes for the same shard. Any nonzero value
	// is an alarm: either a worker is computing wrongly or corruption got
	// past the checksum.
	VerifyMismatches Counter
	// BreakerOpens counts circuit-breaker transitions into the open state.
	BreakerOpens Counter
	// ResumedMines counts mines that skipped at least one journaled shard on
	// startup; ResumedShards counts the shards so skipped.
	ResumedMines  Counter
	ResumedShards Counter
}

var distMetrics DistMetrics //opvet:racesafe counters are atomics; the worker map and histogram are guarded by mu

// Dist returns the process-wide distributed-tier metrics.
func Dist() *DistMetrics { return &distMetrics }

// WorkerShards returns (creating on first use) the completed-shard counter of
// the named worker.
func (m *DistMetrics) WorkerShards(worker string) *Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.workers == nil {
		m.workers = map[string]*Counter{}
	}
	c := m.workers[worker]
	if c == nil {
		c = &Counter{}
		m.workers[worker] = c
	}
	return c
}

// ShardLatency returns the round-trip histogram of completed remote shards.
func (m *DistMetrics) ShardLatency() *Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.latency == nil {
		m.latency = NewHistogram()
	}
	return m.latency
}

// ObserveShard records one shard completed by the named worker.
func (m *DistMetrics) ObserveShard(worker string, d time.Duration) {
	m.WorkerShards(worker).Inc()
	m.ShardLatency().Observe(d)
}

// renderDist writes the distributed-tier metrics in exposition format. Every
// family renders even before a coordinator has run, so scrapes always see a
// stable schema.
func (m *DistMetrics) renderDist(b *strings.Builder) {
	m.mu.Lock()
	names := make([]string, 0, len(m.workers))
	for name := range m.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	cs := make([]*Counter, 0, len(names))
	for _, name := range names {
		cs = append(cs, m.workers[name])
	}
	m.mu.Unlock()
	b.WriteString("# TYPE periodica_dist_shards_total counter\n")
	for i, name := range names {
		b.WriteString(fmt.Sprintf("periodica_dist_shards_total{worker=%q} %d\n",
			name, cs[i].Value()))
	}
	b.WriteString("# TYPE periodica_dist_retries_total counter\n")
	b.WriteString(fmt.Sprintf("periodica_dist_retries_total %d\n", m.Retries.Value()))
	b.WriteString("# TYPE periodica_dist_hedges_total counter\n")
	b.WriteString(fmt.Sprintf("periodica_dist_hedges_total %d\n", m.Hedges.Value()))
	b.WriteString("# TYPE periodica_dist_local_fallbacks_total counter\n")
	b.WriteString(fmt.Sprintf("periodica_dist_local_fallbacks_total %d\n", m.LocalFallbacks.Value()))
	b.WriteString("# TYPE periodica_dist_integrity_failures_total counter\n")
	b.WriteString(fmt.Sprintf("periodica_dist_integrity_failures_total %d\n", m.IntegrityFailures.Value()))
	b.WriteString("# TYPE periodica_dist_verify_mismatches_total counter\n")
	b.WriteString(fmt.Sprintf("periodica_dist_verify_mismatches_total %d\n", m.VerifyMismatches.Value()))
	b.WriteString("# TYPE periodica_dist_breaker_opens_total counter\n")
	b.WriteString(fmt.Sprintf("periodica_dist_breaker_opens_total %d\n", m.BreakerOpens.Value()))
	b.WriteString("# TYPE periodica_dist_resumed_mines_total counter\n")
	b.WriteString(fmt.Sprintf("periodica_dist_resumed_mines_total %d\n", m.ResumedMines.Value()))
	b.WriteString("# TYPE periodica_dist_resumed_shards_total counter\n")
	b.WriteString(fmt.Sprintf("periodica_dist_resumed_shards_total %d\n", m.ResumedShards.Value()))
	b.WriteString("# TYPE periodica_dist_shard_duration_seconds histogram\n")
	m.ShardLatency().renderBuckets(b, "periodica_dist_shard_duration_seconds", "")
}

// QueryMetrics count pattern-query compilations process-wide: every layer
// that turns a query string into a query.Spec — httpapi, the CLIs, the
// distributed workers — funnels through one cached compiler, so these three
// counters describe the whole process's query traffic.
type QueryMetrics struct {
	// Compiles counts cache-missing compilations (lex → parse → check →
	// spec), successful or not.
	Compiles Counter
	// CompileErrors counts compilations rejected by the parser or
	// typechecker.
	CompileErrors Counter
	// CacheHits counts compilations answered from the bounded spec cache —
	// repeated query strings (standing queries, retried requests, shard
	// fan-out) skip the front end entirely.
	CacheHits Counter
}

var queryMetrics QueryMetrics //opvet:racesafe counters are atomics

// Query returns the process-wide query-compiler metrics.
func Query() *QueryMetrics { return &queryMetrics }

// renderQuery writes the query-compiler metrics in exposition format.
func (m *QueryMetrics) renderQuery(b *strings.Builder) {
	b.WriteString("# TYPE periodica_query_compiles_total counter\n")
	b.WriteString(fmt.Sprintf("periodica_query_compiles_total %d\n", m.Compiles.Value()))
	b.WriteString("# TYPE periodica_query_compile_errors_total counter\n")
	b.WriteString(fmt.Sprintf("periodica_query_compile_errors_total %d\n", m.CompileErrors.Value()))
	b.WriteString("# TYPE periodica_query_cache_hits_total counter\n")
	b.WriteString(fmt.Sprintf("periodica_query_cache_hits_total %d\n", m.CacheHits.Value()))
}

// statusClasses label the response-status families tracked per endpoint.
var statusClasses = [...]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// Endpoint aggregates the serving metrics of one route: request counts by
// status class, a request-latency histogram, and a mine-duration histogram
// (observed only around the actual mining call, so it excludes decode and
// encode time).
type Endpoint struct {
	name     string
	classes  [len(statusClasses)]Counter
	requests *Histogram
	mine     *Histogram
}

// ObserveRequest records one completed request with its response status.
func (e *Endpoint) ObserveRequest(status int, d time.Duration) {
	class := status/100 - 1
	if class < 0 || class >= len(statusClasses) {
		class = 4 // treat out-of-range codes as server errors
	}
	e.classes[class].Inc()
	e.requests.Observe(d)
}

// ObserveMine records the duration of one mining call.
func (e *Endpoint) ObserveMine(d time.Duration) { e.mine.Observe(d) }

// Requests returns the request count in the given status class ("2xx", …).
func (e *Endpoint) Requests(class string) int64 {
	for i, c := range statusClasses {
		if c == class {
			return e.classes[i].Value()
		}
	}
	return 0
}

// MineCount returns the number of observed mining calls.
func (e *Endpoint) MineCount() int64 { return e.mine.Count() }

// Registry holds the metrics of one server instance. The zero value is not
// usable; call NewRegistry. Endpoint lookup takes a mutex, so handlers
// serving hot routes may capture their *Endpoint once up front — though the
// lock is uncontended enough that per-request lookup is also fine.
type Registry struct {
	mu        sync.Mutex
	endpoints map[string]*Endpoint
	inFlight  Gauge
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{endpoints: make(map[string]*Endpoint)}
}

// Endpoint returns (creating on first use) the metrics of the named route.
func (r *Registry) Endpoint(name string) *Endpoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.endpoints[name]
	if !ok {
		e = &Endpoint{name: name, requests: NewHistogram(), mine: NewHistogram()}
		r.endpoints[name] = e
	}
	return e
}

// InFlight returns the gauge of requests currently being served.
func (r *Registry) InFlight() *Gauge { return &r.inFlight }

// MineDurations aggregates the mine-duration histograms of every endpoint:
// the number of observed mining calls and their total duration. The serving
// layer derives its Retry-After estimate — roughly how long until an
// admission slot frees — from this recent-load signal.
func (r *Registry) MineDurations() (count int64, sum time.Duration) {
	r.mu.Lock()
	eps := make([]*Endpoint, 0, len(r.endpoints))
	for _, e := range r.endpoints {
		eps = append(eps, e)
	}
	r.mu.Unlock()
	for _, e := range eps {
		count += e.mine.Count()
		sum += e.mine.Sum()
	}
	return count, sum
}

// RenderText renders every metric in the Prometheus plaintext exposition
// format, endpoints in sorted order.
func (r *Registry) RenderText() string {
	r.mu.Lock()
	names := make([]string, 0, len(r.endpoints))
	for name := range r.endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	eps := make([]*Endpoint, 0, len(names))
	for _, name := range names {
		eps = append(eps, r.endpoints[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	b.WriteString("# TYPE periodica_http_in_flight gauge\n")
	b.WriteString(fmt.Sprintf("periodica_http_in_flight %d\n", r.inFlight.Value()))
	b.WriteString("# TYPE periodica_http_requests_total counter\n")
	for _, e := range eps {
		for i, class := range statusClasses {
			if n := e.classes[i].Value(); n > 0 {
				b.WriteString(fmt.Sprintf("periodica_http_requests_total{endpoint=%q,class=%q} %d\n",
					e.name, class, n))
			}
		}
	}
	b.WriteString("# TYPE periodica_http_request_duration_seconds histogram\n")
	for _, e := range eps {
		e.requests.renderBuckets(&b, "periodica_http_request_duration_seconds",
			fmt.Sprintf("endpoint=%q", e.name))
	}
	b.WriteString("# TYPE periodica_mine_duration_seconds histogram\n")
	for _, e := range eps {
		if e.mine.Count() > 0 {
			e.mine.renderBuckets(&b, "periodica_mine_duration_seconds",
				fmt.Sprintf("endpoint=%q", e.name))
		}
	}
	recoveryMetrics.renderRecovery(&b)
	execMetrics.renderExec(&b)
	fftMetrics.renderFFT(&b)
	distMetrics.renderDist(&b)
	queryMetrics.renderQuery(&b)
	return b.String()
}

// Handler serves the registry as plaintext; method gating is the caller's
// concern (the httpapi server restricts it to GET/HEAD).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		text := r.RenderText()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = io.WriteString(w, text)
	})
}
