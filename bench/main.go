// Command bench is periodica's serving benchmark. It drives the real
// httpapi server in process over loopback with a closed loop of clients,
// checks every response byte for byte against the library's answer, and
// prints the end-to-end metrics of each workload; a traced pass replays the
// same requests layer by layer. See README.md for the workloads, the metrics
// and their bounds.
//
//	bash bench/run.sh                                  # all workloads, timed
//	bash bench/run.sh --trace 1 --out .bench_build/t   # plus the traced pass
//	bash bench/run.sh --workload paper-dense --seed 3 --seconds 20 --trace 0
//	bash bench/run.sh --compare A.json B.json          # ledger comparison
package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"time"
)

// rounds is how many fresh child processes share a workload's measured
// seconds. The median over rounds ignores a disturbance of the host that
// lasts a round or two, which would shift a single long window.
const rounds = 8

// metricDef names a reported metric, its unit and how it is measured.
type metricDef struct{ name, unit, how string }

// e2eMetrics are the end-to-end metrics, measured with tracing off. The
// first five are timings, host-adjusted (see host.go).
var e2eMetrics = []metricDef{
	{"setup_s", "s", "server stack construction plus one warm-up request per client, median over rounds"},
	{"latency_p50_ms", "ms", "request sent to response read, p50 of every round's samples pooled"},
	{"latency_p90_ms", "ms", "request sent to response read, p90 of every round's samples pooled"},
	{"throughput_ops", "1/s", "requests completed per second, median over rounds"},
	{"cpu_ms_per_op", "ms", "process user+system CPU per request (getrusage), median over rounds"},
	{"alloc_mb_per_op", "MiB", "runtime TotalAlloc growth per request, alloc pass, mean over the pool"},
	{"rss_p90_mb", "MiB", "p90 of the process's resident set, sampled every 50 ms while measuring, median over rounds"},
	{"resp_kb_per_op", "KiB", "response bytes per request, alloc pass, mean over the pool"},
}

// layerMetrics are the traced pass's per-layer metrics. A layer a workload's
// request never reaches reads 0.
var layerMetrics = []metricDef{
	{"httpapi.decode_ms", "ms", "json.Unmarshal into httpapi.MineRequest"},
	{"httpapi.encode_ms", "ms", "json.Marshal of the response value"},
	{"httpapi.handler_ms", "ms", "Server.ServeHTTP into an httptest.ResponseRecorder"},
	{"httpapi.transport_ms", "ms", "timed p50 latency as measured, before host adjustment, - httpapi.handler_ms"},
	{"httpapi.req_kb", "KiB", "request body size"},
	{"httpapi.resp_kb", "KiB", "response body size"},
	{"query.compile_us", "us", "periodica.CompileQuery of a source string never compiled before"},
	{"query.cache_hit_ratio", "ratio", "obs.Query() hits / (hits + compiles) across the handler calls"},
	{"series.build_ms", "ms", "periodica.NewSeriesFromString or Query.DiscretizeValues"},
	{"conv.indicators_ms", "ms", "conv.NewIndicators (/v1/candidates builds none)"},
	{"conv.detect_ms", "ms", "conv.LagMatchCountsExec on a one-worker scheduler, FFT on all cores"},
	{"fft.kernel_calls", "count", "obs.FFT() kernel counters' growth over conv.detect"},
	{"core.sweep_ms", "ms", "ShardSurvivors - detect - indicators, all on one P (candidates: DetectCandidatesContext - detect)"},
	{"core.periods_swept", "count", "candidate periods in the sweep band"},
	{"core.survivors", "count", "(symbol, period) pairs the sweep keeps (candidates: periods kept)"},
	{"core.prune_pass_ratio", "ratio", "survivors / (sigma * periods swept) (candidates: kept / swept)"},
	{"core.resolve_ms", "ms", "MineShardSlotsFromSurvivors over every symbol - indicators, both on one P"},
	{"core.periodicities", "count", "periodicities resolved"},
	{"core.resolve_yield", "ratio", "distinct (symbol, period) pairs emitted / survivors"},
	{"core.assemble_ms", "ms", "core.AssembleFromSlots: merge, sort, enumerate"},
	{"core.patterns", "count", "multi-symbol patterns enumerated"},
	{"core.patterns_truncated", "count", "1 when the pattern cap stopped enumeration"},
	{"core.mine_ms", "ms", "core.MineContext (candidates: core.DetectCandidatesContext)"},
	{"core.residual_ms", "ms", "core.mine_ms - (indicators + detect + sweep + resolve + assemble)"},
	{"periodica.result_build_ms", "ms", "periodica.MineQueryContext - core.MineContext (candidates: the CandidatePeriods pair)"},
	{"periodica.single_symbol_patterns", "count", "len(Result.SingleSymbolPatterns)"},
	{"periodica.pattern_text_kb", "KiB", "sum of len(Pattern.Text) over both pattern lists"},
	{"dist.mine_ms", "ms", "dist.Coordinator.Mine"},
	{"dist.shard_ms_p50", "ms", "median /v1/shard span, from a timing middleware on each worker"},
	{"dist.shard_ms_max", "ms", "slowest shard span of a mine"},
	{"dist.coord_self_ms", "ms", "dist.mine_ms - union of the mine's shard spans"},
	{"dist.shards", "count", "shard spans per mine"},
	{"dist.wire_kb", "KiB", "shard request plus response bytes per mine"},
	{"dist.retries", "count", "obs.Dist() growth over the traced pass"},
	{"dist.hedges", "count", "obs.Dist() growth over the traced pass"},
	{"dist.fallbacks", "count", "obs.Dist() growth over the traced pass"},
	{"dist.integrity_failures", "count", "obs.Dist() growth over the traced pass"},
	{"runtime.gc_cycles_per_op", "count", "timed pass: GC cycles per request"},
	{"runtime.gc_pause_ms_per_op", "ms", "timed pass: stop-the-world pause per request"},
	{"host.calib_ms", "ms", "calibration reading (CPU ms of a fixed workload), median over the rounds' readings"},
	{"growth.e2e", "slope", "log-log slope over paper-dense at n = 512, 1024, 2048 of httpapi.handler_ms"},
	{"growth.core.resolve", "slope", "same, of core.resolve_ms"},
	{"growth.core.assemble", "slope", "same, of core.assemble_ms"},
	{"growth.periodica.result_build", "slope", "same, of periodica.result_build_ms"},
	{"growth.httpapi.encode", "slope", "same, of httpapi.encode_ms"},
	{"growth.alloc", "slope", "same, of the allocation of one ServeHTTP call"},
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadRecord is one workload's share of a run.
type workloadRecord struct {
	E2E        map[string]metric `json:"e2e"`
	Layers     map[string]metric `json:"layers,omitempty"`
	ErrorRatio float64           `json:"error_ratio"`
	// Samples is the number of timed requests behind the percentiles.
	Samples   int    `json:"samples"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Failure   string `json:"failure,omitempty"`
}

// runRecord is one invocation's results, the unit the ledger stores.
type runRecord struct {
	Seed         int64                      `json:"seed"`
	Rounds       int                        `json:"rounds"`
	RoundSeconds float64                    `json:"round_seconds"`
	Clients      int                        `json:"clients"`
	Host         string                     `json:"host"`
	Workloads    map[string]*workloadRecord `json:"workloads"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	err := mainErr()
	if errors.Is(err, errIncorrect) {
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}

// errIncorrect reports a run whose result line has already said it failed.
var errIncorrect = errors.New("some responses were wrong")

func mainErr() error {
	workloadFlag := flag.String("workload", "all", "workload to run, or all of them interleaved")
	seed := flag.Int64("seed", 1, "seed of every input generator")
	seconds := flag.Float64("seconds", 16, "measured seconds per workload, split over the rounds")
	trace := flag.Int("trace", 0, "1 adds the traced per-layer pass and prints its metrics")
	out := flag.String("out", "", "directory the traced pass writes its spans to")
	ledger := flag.String("ledger", "", "ledger file this run is appended to")
	compareRuns := flag.Bool("compare", false, "compare two ledger files: -compare A.json B.json")
	bounds := flag.String("bounds", "BENCHMARK.json", "benchmark definition holding the regression bounds")
	child := flag.String("child", "", "internal: run one timed round from stdin (round) or one traced pass (trace)")
	flag.Parse()

	switch {
	case *child == "round":
		return roundMain()
	case *child == "trace":
		return traceMain(*workloadFlag, *seed)
	case *child != "":
		return fmt.Errorf("unknown -child mode %q", *child)
	case *compareRuns:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two ledger files")
		}
		return compare(os.Stdout, *bounds, flag.Arg(0), flag.Arg(1))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	var chosen []*workload
	if *workloadFlag == "all" {
		for i := range workloads {
			chosen = append(chosen, &workloads[i])
		}
	} else {
		w, err := lookupWorkload(*workloadFlag)
		if err != nil {
			return err
		}
		chosen = []*workload{w}
	}

	ctx := context.Background()
	rec, err := run(ctx, chosen, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		return err
	}
	if *ledger != "" {
		if err := appendLedger(*ledger, rec); err != nil {
			return err
		}
	}
	res := result{Metrics: map[string]metric{}}
	for _, w := range chosen {
		wr := rec.Workloads[w.name]
		res.Attempted += wr.Attempted
		res.Failed += wr.Failed
		ms := wr.E2E
		if *trace == 1 {
			ms = wr.Layers
		}
		for name, m := range ms {
			if len(chosen) > 1 {
				name = w.name + "/" + name
			}
			res.Metrics[name] = m
		}
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// run prepares the workloads, runs their timed rounds interleaved (round 1
// of each, then round 2 of each, …) and, if asked, the traced pass.
func run(ctx context.Context, chosen []*workload, seed int64, seconds float64, traced bool, outDir string) (*runRecord, error) {
	rec := &runRecord{
		Seed: seed, Rounds: rounds, RoundSeconds: seconds / rounds, Clients: runtime.GOMAXPROCS(0),
		Host:      fmt.Sprintf("%s/%s, %d CPUs, %s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version()),
		Workloads: map[string]*workloadRecord{},
	}
	preps := make([]*prepared, len(chosen))
	for i, w := range chosen {
		p, err := prepare(ctx, w, seed)
		if err != nil {
			return nil, err
		}
		preps[i] = p
	}
	results := make([][]*roundResult, len(chosen))
	for r := 0; r < rounds; r++ {
		for i, p := range preps {
			res, err := spawnRound(ctx, p, rec.RoundSeconds, r == 0)
			if err != nil {
				return nil, fmt.Errorf("%s round %d: %w", p.w.name, r+1, err)
			}
			results[i] = append(results[i], res)
		}
	}
	for i, p := range preps {
		wr, err := summarize(results[i])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.w.name, err)
		}
		rec.Workloads[p.w.name] = wr
		printE2E(p.w.name, rec, wr)
	}
	if !traced {
		return rec, nil
	}

	var spans []span
	for i, p := range preps {
		out, err := spawnChild(ctx, nil, 2*time.Minute, "-child", "trace", "-workload", p.w.name, "-seed", fmt.Sprint(seed))
		if err != nil {
			return nil, fmt.Errorf("%s traced pass: %w", p.w.name, err)
		}
		var tres traceResult
		if err := json.Unmarshal(out, &tres); err != nil {
			return nil, fmt.Errorf("%s traced pass output: %w", p.w.name, err)
		}
		v := tres.Layers
		wr := rec.Workloads[p.w.name]
		v["httpapi.transport_ms"] = measuredP50(results[i]) - v["httpapi.handler_ms"]
		for name, x := range roundMedians(results[i]) {
			v[name] = x
		}
		wr.Layers = map[string]metric{}
		for _, d := range layerMetrics {
			wr.Layers[d.name] = metric{Value: v[d.name], Unit: d.unit}
		}
		printLayers(p.w.name, wr)
		spans = appendSpans(spans, tres.Spans)
	}
	if outDir != "" {
		if err := writeSpans(outDir, spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return rec, nil
}

// appendSpans adds one trace process's spans to all, renumbering them so
// that ids stay unique across processes.
func appendSpans(all, more []span) []span {
	var base int64
	for _, sp := range all {
		base = max(base, sp.ID)
	}
	for _, sp := range more {
		sp.ID += base
		if sp.Parent != 0 {
			sp.Parent += base
		}
		all = append(all, sp)
	}
	return all
}

// spawnRound runs one timed round of p in a fresh child process, with the
// alloc pass if allocPass is set.
func spawnRound(ctx context.Context, p *prepared, seconds float64, allocPass bool) (*roundResult, error) {
	var in bytes.Buffer
	if err := gob.NewEncoder(&in).Encode(roundInput{
		Workload: p.w.name, Seconds: seconds, Bodies: p.bodies, Expected: p.expected, AllocPass: allocPass,
	}); err != nil {
		return nil, err
	}
	out, err := spawnChild(ctx, &in, time.Duration(seconds*float64(time.Second))+2*time.Minute, "-child", "round")
	if err != nil {
		return nil, err
	}
	var res roundResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("round process output: %w", err)
	}
	if len(res.CalibMs) != len(res.Segments)+1 {
		return nil, fmt.Errorf("round has %d calibration readings for %d segments", len(res.CalibMs), len(res.Segments))
	}
	for _, sg := range res.Segments {
		if len(sg.LatencyMs) == 0 {
			return nil, fmt.Errorf("a segment of %.2f s completed no request", sg.WindowS)
		}
	}
	if allocPass && len(res.AllocB) != len(p.bodies) {
		return nil, fmt.Errorf("alloc pass measured %d of %d requests", len(res.AllocB), len(p.bodies))
	}
	return &res, nil
}

// spawnChild runs this binary with args, feeding it stdin, and returns its
// standard output once it has exited. It is killed after timeout.
func spawnChild(ctx context.Context, stdin *bytes.Buffer, timeout time.Duration, args ...string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	if stdin != nil {
		cmd.Stdin = stdin
	}
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child process %v: %w", args, err)
	}
	return out, nil
}

// summarize turns a workload's rounds into its record.
func summarize(rs []*roundResult) (*workloadRecord, error) {
	wr := &workloadRecord{}
	var sized bool
	for _, r := range rs {
		if len(r.CalibMs) != len(r.Segments)+1 || r.ops() == 0 {
			return nil, fmt.Errorf("round with %d calibration readings, %d segments and %d requests", len(r.CalibMs), len(r.Segments), r.ops())
		}
		for _, c := range r.CalibMs {
			if !(c > 0) {
				return nil, fmt.Errorf("round with a calibration time of %v ms", c)
			}
		}
		sized = sized || len(r.AllocB) > 0
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		wr.Samples += r.ops()
		if wr.Failure == "" {
			wr.Failure = r.Failure
		}
	}
	if !sized {
		return nil, fmt.Errorf("no round ran the alloc pass")
	}
	wr.ErrorRatio = float64(wr.Failed) / float64(wr.Attempted)
	wr.E2E = e2eValues(rs)
	return wr, nil
}

// e2eValues computes the end-to-end metrics. Timings are host-adjusted: set-up
// and each segment are scaled by their factor from hostScales. Timings and
// rates are medians over rounds, and the latency percentiles pool every
// round's scaled samples. Allocation and response size are means over the
// pool from the alloc pass.
func e2eValues(rs []*roundResult) map[string]metric {
	var lat []float64
	per := map[string][]float64{}
	for _, r := range rs {
		setupK, segK := hostScales(r.CalibMs)
		var ops, cpuS, windowS float64
		for i, sg := range r.Segments {
			ks := segK[i]
			for _, x := range sg.LatencyMs {
				lat = append(lat, x*ks)
			}
			ops += float64(len(sg.LatencyMs))
			cpuS += sg.CPUS * ks
			windowS += sg.WindowS * ks
		}
		per["setup_s"] = append(per["setup_s"], r.SetupS*setupK)
		per["throughput_ops"] = append(per["throughput_ops"], ops/windowS)
		per["cpu_ms_per_op"] = append(per["cpu_ms_per_op"], cpuS*1000/ops)
		per["rss_p90_mb"] = append(per["rss_p90_mb"], r.RSSP90MB)
		for i := range r.AllocB {
			per["alloc_mb_per_op"] = append(per["alloc_mb_per_op"], float64(r.AllocB[i])/(1<<20))
			per["resp_kb_per_op"] = append(per["resp_kb_per_op"], float64(r.RespB[i])/1024)
		}
	}
	out := map[string]metric{}
	for _, d := range e2eMetrics {
		var v float64
		switch d.name {
		case "latency_p50_ms":
			v = percentile(lat, 50)
		case "latency_p90_ms":
			v = percentile(lat, 90)
		case "alloc_mb_per_op", "resp_kb_per_op":
			v = mean(per[d.name])
		default:
			v = median(per[d.name])
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

// measuredP50 is the timed rounds' pooled p50 latency without the host
// adjustment, comparable with the traced pass's own timings.
func measuredP50(rs []*roundResult) float64 {
	var lat []float64
	for _, r := range rs {
		for _, sg := range r.Segments {
			lat = append(lat, sg.LatencyMs...)
		}
	}
	return percentile(lat, 50)
}

// roundMedians are the layer metrics the timed rounds measure.
func roundMedians(rs []*roundResult) map[string]float64 {
	var cycles, pause, calib []float64
	for _, r := range rs {
		ops := float64(r.ops())
		cycles = append(cycles, float64(r.GCCycles)/ops)
		pause = append(pause, float64(r.GCPauseNs)/1e6/ops)
		calib = append(calib, r.CalibMs...)
	}
	return map[string]float64{
		"runtime.gc_cycles_per_op":   median(cycles),
		"runtime.gc_pause_ms_per_op": median(pause),
		"host.calib_ms":              median(calib),
	}
}

func printE2E(name string, rec *runRecord, wr *workloadRecord) {
	fmt.Printf("%s: seed %d, %d rounds x %.1f s in %d segments, %d clients, %d request bodies\n",
		name, rec.Seed, rec.Rounds, rec.RoundSeconds, segments, rec.Clients, poolSize)
	for _, d := range e2eMetrics {
		fmt.Printf("  %-34s %12.4f %-5s %s\n", d.name, wr.E2E[d.name].Value, d.unit, d.how)
	}
	fmt.Printf("  %-34s %12d %-5s %s\n", "load.ops", wr.Samples, "count", "timed requests behind the percentiles")
	fmt.Printf("  %-34s %12.4f %-5s %d failed of %d attempted\n", "error_ratio", wr.ErrorRatio, "ratio", wr.Failed, wr.Attempted)
	if wr.Failure != "" {
		fmt.Printf("  first failure: %s\n", wr.Failure)
	}
}

func printLayers(name string, wr *workloadRecord) {
	fmt.Printf("%s: traced pass, median of %d replays\n", name, replays)
	for _, d := range layerMetrics {
		fmt.Printf("  %-34s %12.4f %-5s %s\n", d.name, wr.Layers[d.name].Value, d.unit, d.how)
	}
}
