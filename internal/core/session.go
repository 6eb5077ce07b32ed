package core

import (
	"runtime"
	"time"

	"periodica/internal/conv"
	"periodica/internal/exec"
	"periodica/internal/fft"
	"periodica/internal/obs"
	"periodica/internal/series"
)

// autoEngineThreshold is the series length at which EngineAuto switches from
// the quadratic reference scan to the FFT engine: below it the naive scan's
// constant factors win, above it the O(σ n log n) batched autocorrelation
// does.
const autoEngineThreshold = 4096

// resolveEngine is the single place an engine request becomes a concrete
// engine. parallel marks runs whose per-period work is sharded over multiple
// workers; there the naive engine (whose semantics the bitset engine shares
// exactly) is substituted by the bitset engine, which shards cleanly.
func resolveEngine(e Engine, n int, parallel bool) Engine {
	switch e {
	case EngineAuto:
		if n >= autoEngineThreshold {
			return EngineFFT
		}
		if parallel {
			return EngineBitset
		}
		return EngineNaive
	case EngineNaive:
		if parallel {
			return EngineBitset
		}
		return EngineNaive
	default:
		return e
	}
}

// session owns the state of one mining run: the series and alphabet bounds,
// the resolved engine and validated options, the FFT-plan cache, the
// scheduler that shards stage work and polls cancellation, and the products
// each stage hands to the next (indicators and lag counts from detect,
// per-period survivor lists from sweep, the Result from resolve and
// enumerate). Every public entry point — batch, context-aware, parallel,
// streaming, incremental, out-of-core — builds a session and runs the same
// pipeline, differing only in the source stage and the scheduler's
// configuration.
type session struct {
	s     *series.Series // nil for the out-of-core source stage
	n     int
	sigma int
	opt   Options
	eng   Engine

	// symLo and symHi restrict the sweep and resolve stages to symbols
	// [symLo, symHi) — the distributed shard seam; symHi 0 means the whole
	// alphabet. Detect still precomputes every symbol's inputs (the batched
	// FFT pairs symbols), but only the shard's symbols are resolved.
	symLo, symHi int

	sched      *exec.Scheduler
	plans      *fft.PlanCache
	met        *obs.ExecMetrics
	fftWorkers int // cores for the batched FFT precompute (0 = all)

	// Stage products.
	ind   *conv.Indicators
	lag   [][]int64
	surv  [][]int32 // surviving symbols per period index (sweep → resolve)
	res   *Result
	slots []SymbolPeriodicity // resolveSlots output (distributed shard path)
	cands []CandidatePeriod
}

// sessionConfig carries the per-entry-point knobs of a session.
type sessionConfig struct {
	workers    int  // stage shard width (1 = serial; ≤ 0 = all cores)
	fftWorkers int  // cores for the FFT precompute (≤ 0 = all)
	parallel   bool // resolve the engine for a sharded run
	cancel     func() error
	maxSteps   int64
	plans      *fft.PlanCache // nil = the process-shared cache
}

// newSession validates opt against s and assembles the session. An empty
// series (a stream that never received a symbol) is rejected.
func newSession(s *series.Series, opt Options, cfg sessionConfig) (*session, error) {
	if s.Len() == 0 {
		return nil, invalidf("core: empty series")
	}
	opt, err := opt.withDefaults(s.Len())
	if err != nil {
		return nil, err
	}
	ses := &session{
		s:     s,
		n:     s.Len(),
		sigma: s.Alphabet().Size(),
		opt:   opt,
		eng:   resolveEngine(opt.Engine, s.Len(), cfg.parallel),
		plans: cfg.plans,
		met:   obs.Exec(),
	}
	ses.finishSession(cfg)
	return ses, nil
}

// newCandidateSession assembles a session for the detection-only path over
// an in-memory series. The threshold and period bound resolve against n
// through the same Spec as a full mine; detection additionally needs every
// lag strictly inside the series.
func newCandidateSession(s *series.Series, psi float64, maxPeriod int, cfg sessionConfig) (*session, error) {
	n := s.Len()
	opt, err := Options{Threshold: psi, MaxPeriod: maxPeriod}.withDefaults(n)
	if err != nil {
		return nil, err
	}
	if opt.MaxPeriod >= n {
		return nil, invalidf("core: maxPeriod %d outside [1,%d)", opt.MaxPeriod, n)
	}
	ses := &session{
		s:     s,
		n:     n,
		sigma: s.Alphabet().Size(),
		opt:   opt,
		eng:   EngineFFT,
		plans: cfg.plans,
		met:   obs.Exec(),
	}
	ses.finishSession(cfg)
	return ses, nil
}

// newFileSession assembles a session whose series lives on disk: the series
// bounds are unknown until the source stage parses the file header, so only
// the threshold is validated here and the stage validates maxPeriod (0 is
// resolved to n/2 once n is known).
func newFileSession(psi float64, maxPeriod int, cfg sessionConfig) *session {
	ses := &session{
		opt:   Options{Threshold: psi, MinPeriod: 1, MaxPeriod: maxPeriod},
		eng:   EngineFFT,
		plans: cfg.plans,
		met:   obs.Exec(),
	}
	ses.finishSession(cfg)
	return ses
}

// finishSession builds the session's scheduler. Worker counts are capped at
// GOMAXPROCS: a request cannot ask for more goroutines than cores.
func (ses *session) finishSession(cfg sessionConfig) {
	if ses.plans == nil {
		ses.plans = fft.SharedPlans()
	}
	ses.fftWorkers = min(cfg.fftWorkers, runtime.GOMAXPROCS(0))
	ses.sched = exec.New(exec.Config{
		Workers:  min(cfg.workers, runtime.GOMAXPROCS(0)),
		Cancel:   cfg.cancel,
		MaxSteps: cfg.maxSteps,
		Metrics:  ses.met,
	})
}

// stage is one step of the mining pipeline. The four roles — detect (build
// the engine's precomputed inputs), sweep (the sound aggregate prune over
// candidate periods), resolve (exact per-phase confidences for survivors),
// and enumerate (Definition-3 pattern DFS) — each run under the session's
// scheduler; a stage must keep all of its state on the session or its own
// value, never in package-level variables (opvet's stagestate rule enforces
// this).
type stage interface {
	name() string
	run(*session) error
}

// runPipeline drives the stages in order, observing per-stage durations and
// polling cancellation at every stage boundary.
func (ses *session) runPipeline(stages ...stage) error {
	for _, st := range stages {
		if err := ses.sched.Poll(); err != nil {
			return err
		}
		start := time.Now()
		err := st.run(ses)
		if ses.met != nil {
			ses.met.ObserveStage(st.name(), time.Since(start))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// mine runs the full four-stage pipeline and returns the result.
func (ses *session) mine() (*Result, error) {
	err := ses.runPipeline(memoryDetect{}, sweepPeriods{}, resolvePhases{}, enumeratePatterns{})
	if err != nil {
		return nil, err
	}
	return ses.res, nil
}

// candidates runs the detection-only pipeline (the paper's Fig. 5 phase):
// the given source stage fills the lag counts, and the candidate sweep
// aggregates them into the surviving periods.
func (ses *session) candidates(src stage) ([]CandidatePeriod, error) {
	if err := ses.runPipeline(src, sweepCandidates{}); err != nil {
		return nil, err
	}
	return ses.cands, nil
}

// newWorkerDetector builds a per-worker detector over the session's shared,
// read-only inputs; each shard carries its own match/count scratch.
func (ses *session) newWorkerDetector() *detector {
	return &detector{
		s:        ses.s,
		eng:      ses.eng,
		minPairs: ses.opt.MinPairs,
		symLo:    ses.symLo,
		symHi:    ses.symHi,
		ind:      ses.ind,
		lag:      ses.lag,
	}
}

// memoryDetect is the detect stage over an in-memory series: one pass builds
// the mapped indicator vectors (the pruned engines' input), and for the FFT
// engine the batched per-symbol autocorrelation — pair-packed planned FFTs
// sharded over the scheduler — yields every lag's match counts.
type memoryDetect struct {
	lagOnly bool // detection-only path: just the aggregate counts
}

func (memoryDetect) name() string { return "detect" }

func (st memoryDetect) run(ses *session) error {
	if !st.lagOnly && (ses.eng == EngineBitset || ses.eng == EngineFFT) {
		ses.ind = conv.NewIndicators(ses.s)
	}
	if ses.eng == EngineFFT {
		lag, err := conv.LagMatchCountsExec(ses.s, ses.sched, ses.fftWorkers, ses.plans)
		if err != nil {
			return err
		}
		ses.lag = lag
	}
	return nil
}

// sweepPeriods is the sweep stage of a full mine: for every candidate period
// it applies the sound aggregate prune — max_l conf(k,p,l) ≤ r_k(p)/minPairs,
// with r_k(p) from the FFT lag counts or a bitset popcount — and records the
// symbols that could still reach the threshold. The naive engine has no
// aggregate counts to prune with, so its sweep is empty and resolve scans
// every period directly.
type sweepPeriods struct{}

func (sweepPeriods) name() string { return "sweep" }

func (sweepPeriods) run(ses *session) error {
	if ses.eng == EngineNaive {
		return nil
	}
	lo := ses.opt.MinPeriod
	span := ses.opt.MaxPeriod - lo + 1
	ses.surv = make([][]int32, span)
	return ses.sched.Run(span, 0, func(w int) func(i int) error {
		det := ses.newWorkerDetector()
		return func(i int) error {
			p := lo + i
			if p < 1 || p >= ses.n || pairsAt(ses.n, p, 0) < ses.opt.MinPairs {
				return nil
			}
			if err := ses.sched.Tick(int64(ses.sigma)); err != nil {
				return err
			}
			ses.surv[i] = det.survivors(p, ses.opt.Threshold, nil)
			return nil
		}
	})
}

// resolvePhases is the resolve stage: for each period's surviving symbols it
// computes the exact per-phase counts F2(s_k, π_{p,l}) and emits the
// Definition-1 periodicities, sharded per period with per-worker scratch.
// Results land in per-period slots, so the assembled Result is identical at
// any worker count.
type resolvePhases struct{}

func (resolvePhases) name() string { return "resolve" }

// collectPerPeriod is the shared heart of the resolve stage: for each
// candidate period's surviving symbols it computes the exact per-phase counts
// F2(s_k, π_{p,l}), sharded per period over the scheduler with per-worker
// scratch. Slot i holds period MinPeriod+i's periodicities — the per-period
// slot seam that makes results byte-identical at any worker count, and that
// the distributed tier ships across processes.
func collectPerPeriod(ses *session) ([][]SymbolPeriodicity, error) {
	lo := ses.opt.MinPeriod
	span := ses.opt.MaxPeriod - lo + 1
	perPeriod := make([][]SymbolPeriodicity, span)
	err := ses.sched.Run(span, 0, func(w int) func(i int) error {
		det := ses.newWorkerDetector()
		return func(i int) error {
			p := lo + i
			emit := func(sp SymbolPeriodicity) { perPeriod[i] = append(perPeriod[i], sp) }
			if ses.eng == EngineNaive {
				if p < 1 || p >= ses.n || pairsAt(ses.n, p, 0) < ses.opt.MinPairs {
					return nil
				}
				if err := ses.sched.Tick(int64(ses.n)); err != nil {
					return err
				}
				det.detectNaive(p, ses.opt.Threshold, emit)
				return nil
			}
			for _, k := range ses.surv[i] {
				if err := ses.sched.Tick(1); err != nil {
					return err
				}
				det.resolveSymbol(int(k), p, ses.opt.Threshold, emit)
			}
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	return perPeriod, nil
}

func (resolvePhases) run(ses *session) error {
	perPeriod, err := collectPerPeriod(ses)
	if err != nil {
		return err
	}
	lo := ses.opt.MinPeriod
	res := &Result{N: ses.n, Sigma: ses.sigma, Threshold: ses.opt.Threshold}
	periodSet := map[int]bool{}
	for i, list := range perPeriod {
		if len(list) == 0 {
			continue
		}
		res.Periodicities = append(res.Periodicities, list...)
		periodSet[lo+i] = true
	}
	finishResult(res, periodSet)
	ses.res = res
	ses.surv = nil // consumed
	return nil
}

// enumeratePatterns is the enumerate stage: the Apriori DFS over
// Definition-3 candidate patterns, with cancellation and step accounting
// delegated to the scheduler.
type enumeratePatterns struct{}

func (enumeratePatterns) name() string { return "enumerate" }

func (enumeratePatterns) run(ses *session) error {
	if ses.opt.MaxPatternPeriod < 0 {
		return nil
	}
	det := ses.newWorkerDetector()
	pats, trunc, err := minePatterns(det, ses.res.Periodicities, ses.opt, ses.sched)
	if err != nil {
		return err
	}
	ses.res.Patterns, ses.res.PatternsTruncated = pats, trunc
	return nil
}

// sweepCandidates is the sweep stage of the detection-only path: each period
// keeps its best symbol under the aggregate test r_k(p) ≥ ψ·minPairs(p),
// written into per-period slots and compacted in period order.
type sweepCandidates struct{}

func (sweepCandidates) name() string { return "sweep" }

func (sweepCandidates) run(ses *session) error {
	maxPeriod := ses.opt.MaxPeriod
	psi := ses.opt.Threshold
	slots := make([]CandidatePeriod, maxPeriod+1)
	err := ses.sched.Run(maxPeriod, 0, func(w int) func(i int) error {
		return func(i int) error {
			p := i + 1
			if err := ses.sched.Tick(int64(ses.sigma)); err != nil {
				return err
			}
			if pairsAt(ses.n, p, 0) < 1 {
				return nil
			}
			minPairs := pairsAt(ses.n, p, p-1)
			if minPairs < 1 {
				minPairs = 1
			}
			best, bestCount := -1, int64(0)
			for k := range ses.lag {
				r := ses.lag[k][p]
				// The same division the full mine's survivors prune uses.
				if float64(r)/float64(minPairs) >= psi && r > bestCount {
					best, bestCount = k, r
				}
			}
			if best >= 0 {
				slots[p] = CandidatePeriod{Period: p, BestSymbol: best, MatchCount: bestCount}
			}
			return nil
		}
	})
	if err != nil {
		return err
	}
	var out []CandidatePeriod
	for p := 1; p <= maxPeriod; p++ {
		if slots[p].Period != 0 {
			out = append(out, slots[p])
		}
	}
	ses.cands = out
	return nil
}
