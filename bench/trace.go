package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"periodica"
	"periodica/internal/conv"
	"periodica/internal/core"
	"periodica/internal/exec"
	"periodica/internal/fft"
	"periodica/internal/httpapi"
	"periodica/internal/obs"
	"periodica/internal/query"
)

const (
	// replays per workload in the traced pass, after one warm-up replay.
	replays = 10
	// growthReplays per series length in the doubling-n pass.
	growthReplays = 3
)

// growthLengths are the series lengths of the doubling-n pass over
// paper-dense.
var growthLengths = [...]int{512, 1024, 2048}

// span is one timed call of the traced pass.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Replay   int    `json:"replay"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Worker   int    `json:"worker,omitempty"`
	Bytes    int64  `json:"bytes,omitempty"`
}

// tracer keeps the traced pass's spans in memory until the run ends.
type tracer struct {
	start  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
	// inflight is the call the replay is making; the worker middleware
	// makes each shard span a child of it.
	inflight atomic.Pointer[span]
	// cold counts compilations of never-seen query strings.
	cold int
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

func (tr *tracer) now() int64 { return int64(time.Since(tr.start)) }

func (tr *tracer) add(sp span) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, sp)
	tr.mu.Unlock()
}

// children returns the spans named name whose parent is the span parent.
func (tr *tracer) children(parent int64, name string) []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []span
	for _, sp := range tr.spans {
		if sp.Parent == parent && sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

// traceResult is what a trace process prints on stdout.
type traceResult struct {
	Layers map[string]float64 `json:"layers"`
	Spans  []span             `json:"spans"`
}

// traceMain runs one workload's traced pass in this process and reports it
// on stdout. Like a timed round it gets a fresh process, holding only its
// own workload, so its handler calls run on a heap like a served process's.
func traceMain(name string, seed int64) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	ctx := context.Background()
	p, err := prepare(ctx, w, seed)
	if err != nil {
		return err
	}
	tr := newTracer()
	layers, err := tr.traceWorkload(ctx, p)
	if err != nil {
		return err
	}
	if w.name == "paper-dense" {
		g, err := tr.growth(ctx, seed)
		if err != nil {
			return err
		}
		for name, x := range g {
			layers[name] = x
		}
	}
	return json.NewEncoder(os.Stdout).Encode(traceResult{Layers: layers, Spans: tr.spans})
}

// writeSpans saves spans as one JSON object per line in dir/spans.jsonl.
func writeSpans(dir string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			_ = f.Close() // the encode error is the one worth reporting
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close() // the flush error is the one worth reporting
		return err
	}
	return f.Close()
}

// shardTimer wraps a dist worker's handler so every /v1/shard request it
// serves becomes a span tagged with the worker and its wire bytes.
func (tr *tracer) shardTimer(worker int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := tr.now()
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		sp := span{
			ID: tr.nextID.Add(1), Name: "dist.shard", StartNs: start, EndNs: tr.now(),
			Worker: worker, Bytes: max(r.ContentLength, 0) + cw.n,
		}
		if caller := tr.inflight.Load(); caller != nil {
			sp.Parent, sp.Replay, sp.Workload = caller.ID, caller.Replay, caller.Workload
		}
		tr.add(sp)
	})
}

// countingWriter counts the response bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.ResponseWriter.Write(p)
	cw.n += int64(n)
	return n, err
}

// scope is one replay: the spans of its calls share a replay id and a root.
type scope struct {
	tr       *tracer
	workload string
	replay   int
	root     int64
}

// call runs f as one span and returns its duration in milliseconds.
func (sc *scope) call(name string, f func() error) (float64, error) {
	ms, _, err := sc.callID(name, f)
	return ms, err
}

// callID is call that also returns the span's id. Shard spans recorded
// while f runs become the span's children.
func (sc *scope) callID(name string, f func() error) (float64, int64, error) {
	sp := span{ID: sc.tr.nextID.Add(1), Parent: sc.root, Replay: sc.replay, Workload: sc.workload, Name: name}
	caller := sp
	sc.tr.inflight.Store(&caller)
	sp.StartNs = sc.tr.now()
	err := f()
	sp.EndNs = sc.tr.now()
	sc.tr.add(sp)
	if err != nil {
		return 0, sp.ID, fmt.Errorf("%s: %w", name, err)
	}
	return float64(sp.EndNs-sp.StartNs) / 1e6, sp.ID, nil
}

// oneP runs f with GOMAXPROCS at one. Inside the served mine the sweep and
// resolve stages run on a one-worker scheduler, but ShardSurvivors and
// MineShardSlotsFromSurvivors size their worker pools from GOMAXPROCS; at
// the default, the dist-2w resolve replays in half the time the served
// mine's own stage histogram records.
func oneP(f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
}

// fftKernels sums the FFT layer's kernel counters.
func fftKernels() int64 {
	m := obs.FFT()
	return m.KernelRadix2.Value() + m.KernelFourStep.Value() + m.KernelReal.Value() + m.KernelBatch.Value()
}

// traceWorkload replays a workload layer by layer against its own server
// stack and returns each layer metric's median over the replays.
func (tr *tracer) traceWorkload(ctx context.Context, p *prepared) (map[string]float64, error) {
	st, err := newStack(p.w, tr.shardTimer)
	if err != nil {
		return nil, err
	}
	defer st.close()
	d := obs.Dist()
	retries, hedges, fallbacks, integrity := d.Retries.Value(), d.Hedges.Value(), d.LocalFallbacks.Value(), d.IntegrityFailures.Value()

	per, shardMs, err := tr.replays(ctx, st, p, p.w.name, replays)
	if err != nil {
		return nil, err
	}
	out := medians(per)
	if hits, compiles := sum(per["query.hits"]), sum(per["query.compiles"]); hits+compiles > 0 {
		out["query.cache_hit_ratio"] = hits / (hits + compiles)
	}
	if p.w.distWorkers > 0 {
		out["dist.shard_ms_p50"] = median(shardMs)
		out["dist.retries"] = float64(d.Retries.Value() - retries)
		out["dist.hedges"] = float64(d.Hedges.Value() - hedges)
		out["dist.fallbacks"] = float64(d.LocalFallbacks.Value() - fallbacks)
		out["dist.integrity_failures"] = float64(d.IntegrityFailures.Value() - integrity)
	}
	return out, nil
}

// replays makes one warm-up replay and then n counted ones, cycling through
// p's pool. It returns every counted replay's values by name, and the
// durations of their dist shard spans.
func (tr *tracer) replays(ctx context.Context, st *stack, p *prepared, label string, n int) (map[string][]float64, []float64, error) {
	per := map[string][]float64{}
	var shardMs []float64
	for r := -1; r < n; r++ { // replay -1 warms the caches and is not counted
		v, shards, err := tr.replay(ctx, st, p, label, r, max(r, 0)%len(p.inputs))
		if err != nil {
			return nil, nil, err
		}
		if r < 0 {
			continue
		}
		for name, x := range v {
			per[name] = append(per[name], x)
		}
		shardMs = append(shardMs, shards...)
	}
	return per, shardMs, nil
}

func medians(per map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(per))
	for name, xs := range per {
		out[name] = median(xs)
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// replay calls every layer of one request in pipeline order with that
// layer's real inputs, checks the answer against the expected bytes, and
// returns the per-layer values plus the durations of any dist shard spans.
func (tr *tracer) replay(ctx context.Context, st *stack, p *prepared, label string, id, k int) (map[string]float64, []float64, error) {
	in, body, want := p.inputs[k], p.bodies[k], p.expected[k]
	sc := &scope{tr: tr, workload: label, replay: id, root: tr.nextID.Add(1)}
	rootStart := tr.now()
	v := map[string]float64{}
	var err error
	fail := func(err error) (map[string]float64, []float64, error) {
		return nil, nil, fmt.Errorf("%s replay %d: %w", label, id, err)
	}

	var req httpapi.MineRequest
	if v["httpapi.decode_ms"], err = sc.call("httpapi.decode", func() error { return json.Unmarshal(body, &req) }); err != nil {
		return fail(err)
	}
	v["httpapi.req_kb"] = float64(len(body)) / 1024

	tr.cold++
	cold := req.Query + strings.Repeat(" ", tr.cold)
	ms, err := sc.call("query.compile", func() error { _, err := periodica.CompileQuery(cold); return err })
	if err != nil {
		return fail(err)
	}
	v["query.compile_us"] = ms * 1000
	q, err := periodica.CompileQuery(req.Query)
	if err != nil {
		return fail(err)
	}

	var s *periodica.Series
	if v["series.build_ms"], err = sc.call("series.build", func() (err error) { s, err = publicSeries(q, &req); return err }); err != nil {
		return fail(err)
	}
	ser := in.series
	if s.Len() != ser.Len() {
		return fail(fmt.Errorf("server-built series has %d symbols, replay series %d", s.Len(), ser.Len()))
	}

	detect := func() error {
		_, err := conv.LagMatchCountsExec(ser, exec.New(exec.Config{Workers: 1}), 0, fft.SharedPlans())
		return err
	}
	kernels := fftKernels()
	if v["conv.detect_ms"], err = sc.call("conv.detect", detect); err != nil {
		return fail(err)
	}
	v["fft.kernel_calls"] = float64(fftKernels() - kernels)

	var answer any
	if p.w.endpoint == endpointCandidates {
		answer, err = tr.candidateLayers(ctx, sc, v, q, s, ser.Len(), in)
	} else {
		answer, err = tr.mineLayers(ctx, sc, v, q, s, in, detect)
	}
	if err != nil {
		return fail(err)
	}

	var enc []byte
	if v["httpapi.encode_ms"], err = sc.call("httpapi.encode", func() (err error) { enc, err = json.Marshal(answer); return err }); err != nil {
		return fail(err)
	}
	if err := verify(http.StatusOK, append(enc, '\n'), want); err != nil {
		return fail(fmt.Errorf("library answer: %w", err))
	}
	v["httpapi.resp_kb"] = float64(len(want)) / 1024

	hits, compiles := obs.Query().CacheHits.Value(), obs.Query().Compiles.Value()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rec := httptest.NewRecorder()
	hreq := httptest.NewRequest(http.MethodPost, p.w.endpoint, bytes.NewReader(body))
	if v["httpapi.handler_ms"], err = sc.call("httpapi.ServeHTTP", func() error {
		st.handler.ServeHTTP(rec, hreq)
		return verify(rec.Code, rec.Body.Bytes(), want)
	}); err != nil {
		return fail(err)
	}
	runtime.ReadMemStats(&m1)
	v["handler_alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	v["query.hits"] = float64(obs.Query().CacheHits.Value() - hits)
	v["query.compiles"] = float64(obs.Query().Compiles.Value() - compiles)

	var shardMs []float64
	if st.coord != nil {
		if shardMs, err = tr.distLayer(ctx, sc, v, st, q, s, want); err != nil {
			return fail(err)
		}
	}
	tr.add(span{ID: sc.root, Replay: id, Workload: label, Name: "replay", StartNs: rootStart, EndNs: tr.now()})
	return v, shardMs, nil
}

// candidateLayers replays the core and root-package calls of /v1/candidates.
func (tr *tracer) candidateLayers(ctx context.Context, sc *scope, v map[string]float64, q *periodica.Query, s *periodica.Series, n int, in *input) (any, error) {
	opt := q.Options()
	maxPeriod := opt.MaxPeriod
	if maxPeriod == 0 {
		maxPeriod = n / 2
	}
	var cands []core.CandidatePeriod
	var err error
	if v["core.mine_ms"], err = sc.call("core.DetectCandidatesContext", func() (err error) {
		cands, err = core.DetectCandidatesContext(ctx, in.series, opt.Threshold, opt.MaxPeriod)
		return err
	}); err != nil {
		return nil, err
	}
	v["core.sweep_ms"] = v["core.mine_ms"] - v["conv.detect_ms"]
	v["core.periods_swept"] = float64(maxPeriod)
	v["core.survivors"] = float64(len(cands))
	v["core.prune_pass_ratio"] = float64(len(cands)) / float64(maxPeriod)

	var periods []int
	root, err := sc.call("periodica.CandidatePeriodsQueryContext", func() (err error) {
		periods, err = periodica.CandidatePeriodsQueryContext(ctx, s, q)
		return err
	})
	if err != nil {
		return nil, err
	}
	v["periodica.result_build_ms"] = root - v["core.mine_ms"]
	return httpapi.CandidatesResponse{Threshold: opt.Threshold, Periods: periods}, nil
}

// mineLayers replays the core and root-package calls of /v1/mine: the
// stages through the shard seam, then the whole core mine and the public
// mine whose result the server encodes.
func (tr *tracer) mineLayers(ctx context.Context, sc *scope, v map[string]float64, q *periodica.Query, s *periodica.Series, in *input, detect func() error) (any, error) {
	ser := in.series
	spec, err := query.Compile(q.Source())
	if err != nil {
		return nil, err
	}
	copt, err := core.OptionsFromSpec(spec)
	if err != nil {
		return nil, err
	}
	norm, err := core.NormalizeOptions(copt, ser.Len())
	if err != nil {
		return nil, err
	}
	indicators := func() error { conv.NewIndicators(ser); return nil }
	if v["conv.indicators_ms"], err = sc.call("conv.indicators", indicators); err != nil {
		return nil, err
	}

	var ind1, det1, survMs, slotsMs float64
	var surv [][]int32
	var slots []core.SymbolPeriodicity
	oneP(func() {
		if ind1, err = sc.call("conv.indicators@1P", indicators); err != nil {
			return
		}
		if det1, err = sc.call("conv.detect@1P", detect); err != nil {
			return
		}
		if survMs, err = sc.call("core.ShardSurvivors@1P", func() (err error) {
			surv, err = core.ShardSurvivors(ctx, ser, norm)
			return err
		}); err != nil {
			return
		}
		slotsMs, err = sc.call("core.MineShardSlotsFromSurvivors@1P", func() (err error) {
			slots, err = core.MineShardSlotsFromSurvivors(ctx, ser, norm, 0, ser.Alphabet().Size(), surv)
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	v["core.sweep_ms"] = survMs - det1 - ind1
	v["core.resolve_ms"] = slotsMs - ind1
	survivors := 0
	for _, list := range surv {
		survivors += len(list)
	}
	pairs := map[[2]int]bool{}
	for _, sp := range slots {
		pairs[[2]int{sp.Symbol, sp.Period}] = true
	}
	v["core.periods_swept"] = float64(len(surv))
	v["core.survivors"] = float64(survivors)
	v["core.prune_pass_ratio"] = float64(survivors) / float64(ser.Alphabet().Size()*len(surv))
	v["core.periodicities"] = float64(len(slots))
	if survivors > 0 {
		v["core.resolve_yield"] = float64(len(pairs)) / float64(survivors)
	}

	var assembled *core.Result
	if v["core.assemble_ms"], err = sc.call("core.AssembleFromSlots", func() (err error) {
		assembled, err = core.AssembleFromSlots(ctx, ser, norm, slots)
		return err
	}); err != nil {
		return nil, err
	}
	v["core.patterns"] = float64(len(assembled.Patterns))
	if assembled.PatternsTruncated {
		v["core.patterns_truncated"] = 1
	}

	var mined *core.Result
	if v["core.mine_ms"], err = sc.call("core.MineContext", func() (err error) {
		mined, err = core.MineContext(ctx, ser, copt)
		return err
	}); err != nil {
		return nil, err
	}
	if len(mined.Periodicities) != len(slots) || len(mined.Patterns) != len(assembled.Patterns) {
		return nil, fmt.Errorf("shard-seam replay found %d periodicities and %d patterns, core.MineContext %d and %d",
			len(slots), len(assembled.Patterns), len(mined.Periodicities), len(mined.Patterns))
	}
	v["core.residual_ms"] = v["core.mine_ms"] - (v["conv.indicators_ms"] + v["conv.detect_ms"] +
		v["core.sweep_ms"] + v["core.resolve_ms"] + v["core.assemble_ms"])

	var res *periodica.Result
	root, err := sc.call("periodica.MineQueryContext", func() (err error) {
		res, err = periodica.MineQueryContext(ctx, s, q)
		return err
	})
	if err != nil {
		return nil, err
	}
	v["periodica.result_build_ms"] = root - v["core.mine_ms"]
	v["periodica.single_symbol_patterns"] = float64(len(res.SingleSymbolPatterns))
	text := 0
	for _, pt := range res.SingleSymbolPatterns {
		text += len(pt.Text)
	}
	for _, pt := range res.Patterns {
		text += len(pt.Text)
	}
	v["periodica.pattern_text_kb"] = float64(text) / 1024
	return res, nil
}

// distLayer replays the coordinator's mine over the stack's workers. The
// shard spans come from the workers' timing middleware; whatever part of the
// mine they do not cover is the coordinator's own time.
func (tr *tracer) distLayer(ctx context.Context, sc *scope, v map[string]float64, st *stack, q *periodica.Query, s *periodica.Series, want []byte) ([]float64, error) {
	var res *periodica.Result
	mineMs, id, err := sc.callID("dist.Coordinator.Mine", func() (err error) {
		res, err = st.coord.Mine(ctx, s, q.Options())
		return err
	})
	if err != nil {
		return nil, err
	}
	if res, err = q.Shape(s, res); err != nil {
		return nil, err
	}
	got, err := encodeResponse(res)
	if err != nil {
		return nil, err
	}
	if err := verify(http.StatusOK, got, want); err != nil {
		return nil, fmt.Errorf("dist.Coordinator.Mine: %w", err)
	}

	shards := tr.children(id, "dist.shard")
	iv := make([]interval, len(shards))
	durs := make([]float64, len(shards))
	var wire int64
	for i, sp := range shards {
		iv[i] = interval{sp.StartNs, sp.EndNs}
		durs[i] = float64(sp.EndNs-sp.StartNs) / 1e6
		wire += sp.Bytes
	}
	v["dist.mine_ms"] = mineMs
	v["dist.coord_self_ms"] = mineMs - float64(unionLength(iv))/1e6
	v["dist.shard_ms_max"] = percentile(durs, 100)
	v["dist.shards"] = float64(len(shards))
	v["dist.wire_kb"] = float64(wire) / 1024
	return durs, nil
}

// growth replays paper-dense at each of growthLengths and fits how each
// cost scales with n: a slope of 1 is linear, 2 quadratic, 3 cubic.
func (tr *tracer) growth(ctx context.Context, seed int64) (map[string]float64, error) {
	w, err := lookupWorkload("paper-dense")
	if err != nil {
		return nil, err
	}
	st, err := newStack(w, nil)
	if err != nil {
		return nil, err
	}
	defer st.close()
	var ns []float64
	cols := map[string][]float64{}
	for _, n := range growthLengths {
		in, err := denseInput(n, poolSeed(seed, 0))
		if err != nil {
			return nil, err
		}
		body, want, err := expectedExchange(ctx, w, in)
		if err != nil {
			return nil, fmt.Errorf("paper-dense at n=%d: %w", n, err)
		}
		p := &prepared{w: w, inputs: []*input{in}, bodies: [][]byte{body}, expected: [][]byte{want}}
		per, _, err := tr.replays(ctx, st, p, fmt.Sprintf("paper-dense n=%d", n), growthReplays)
		if err != nil {
			return nil, err
		}
		ns = append(ns, float64(n))
		for name, x := range medians(per) {
			cols[name] = append(cols[name], x)
		}
	}
	out := map[string]float64{}
	for metric, col := range map[string]string{
		"growth.e2e":                    "httpapi.handler_ms",
		"growth.core.resolve":           "core.resolve_ms",
		"growth.core.assemble":          "core.assemble_ms",
		"growth.periodica.result_build": "periodica.result_build_ms",
		"growth.httpapi.encode":         "httpapi.encode_ms",
		"growth.alloc":                  "handler_alloc_mb",
	} {
		out[metric] = logLogSlope(ns, cols[col])
	}
	return out, nil
}
