package core

import (
	"runtime"
	"slices"
	"time"

	"periodica/internal/conv"
	"periodica/internal/exec"
	"periodica/internal/fft"
	"periodica/internal/obs"
	"periodica/internal/series"
)

// AutoBitsetSpan is the widest period band EngineAuto sweeps by popcount,
// at about n/64 words per symbol and period; a wider band takes the FFT
// precompute, O(σ n log B) at any span. It is the widest probed span at
// which popcount was no slower at every n and σ (DESIGN.md, "Engine choice").
const AutoBitsetSpan = 192

// resolveEngine is the single place an engine request becomes a concrete
// engine: EngineAuto resolves by the number of periods swept, span, and a
// named engine passes through.
func resolveEngine(e Engine, span int) Engine {
	if e != EngineAuto {
		return e
	}
	if span <= AutoBitsetSpan {
		return EngineBitset
	}
	return EngineFFT
}

// session owns the state of one mining run: the series and alphabet bounds,
// the resolved engine and validated options, the scheduler that shards stage
// work and polls cancellation, and the products each stage hands to the
// next (indicators and lag counts from detect, per-period survivor lists
// from sweep, the Result from resolve and enumerate). Every mine and every
// detection — in memory at any worker count, or over an on-disk series —
// builds a session and runs the same pipeline, differing only in the source
// stage and the scheduler's configuration. FFT plans come from the
// process-shared cache.
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
	workers    int // stage shard width (1 = serial; ≤ 0 = all cores)
	fftWorkers int // cores for the FFT precompute (≤ 0 = all)
	cancel     func() error
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
		eng:   resolveEngine(opt.Engine, opt.MaxPeriod-opt.MinPeriod+1),
		met:   obs.Exec(),
	}
	ses.finishSession(cfg)
	return ses, nil
}

// newCandidateSession assembles a session for the detection-only path over
// an in-memory series.
func newCandidateSession(s *series.Series, psi float64, minPeriod, maxPeriod int, cfg sessionConfig) (*session, error) {
	n := s.Len()
	opt, err := candidateOptions(psi, minPeriod, maxPeriod, n)
	if err != nil {
		return nil, err
	}
	ses := &session{
		s:     s,
		n:     n,
		sigma: s.Alphabet().Size(),
		opt:   opt,
		eng:   EngineFFT,
		met:   obs.Exec(),
	}
	ses.finishSession(cfg)
	return ses, nil
}

// candidateOptions validates the detection-only path's parameters against
// a series of length n, for the in-memory and on-disk sources alike: the
// threshold and the period range [minPeriod, maxPeriod] resolve through the
// same Spec as a full mine, and detection additionally needs every lag
// strictly inside the series.
func candidateOptions(psi float64, minPeriod, maxPeriod, n int) (Options, error) {
	opt, err := Options{Threshold: psi, MinPeriod: minPeriod, MaxPeriod: maxPeriod}.withDefaults(n)
	if err != nil {
		return opt, err
	}
	if opt.MaxPeriod >= n {
		return opt, invalidf("core: maxPeriod %d outside [1,%d)", opt.MaxPeriod, n)
	}
	return opt, nil
}

// finishSession builds the session's scheduler. Worker counts are capped at
// GOMAXPROCS: a request cannot ask for more goroutines than cores.
func (ses *session) finishSession(cfg sessionConfig) {
	ses.fftWorkers = min(cfg.fftWorkers, runtime.GOMAXPROCS(0))
	ses.sched = exec.New(exec.Config{
		Workers: min(cfg.workers, runtime.GOMAXPROCS(0)),
		Cancel:  cfg.cancel,
		Metrics: ses.met,
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
// engine the per-symbol block autocorrelation — planned FFTs sharded over
// the scheduler — yields the match counts of every lag up to MaxPeriod, the
// only lags the sweep reads.
type memoryDetect struct {
	lagOnly bool // just the aggregate counts: detection only, or the FFT shard sweep
}

func (memoryDetect) name() string { return "detect" }

func (st memoryDetect) run(ses *session) error {
	if !st.lagOnly && (ses.eng == EngineBitset || ses.eng == EngineFFT) {
		ses.ind = conv.NewIndicators(ses.s)
	}
	if ses.eng == EngineFFT {
		lag, err := conv.LagMatchCountsBand(ses.s, ses.opt.MaxPeriod, ses.sched, ses.fftWorkers, fft.SharedPlans())
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
// Results land in per-period slots, each already in canonical order
// (position, then symbol), so concatenating them in period order yields the
// canonical Result with no sort, identical at any worker count.
type resolvePhases struct{}

func (resolvePhases) name() string { return "resolve" }

// phaseHit is one qualifying cell of a period's phase-count table: a
// periodicity without the fields its period implies (Period, and Pairs and
// Confidence, which follow from n, the period and the position), at a third
// of a SymbolPeriodicity's size. Symbols are int32, as in the sweep's
// survivor lists. A position is below its period, and resolve's table of p
// cells per symbol keeps p far below 2^31.
type phaseHit struct {
	symbol, position int32
	f2               int
}

// resolvePeriodicities is the shared heart of the resolve stage: for each
// candidate period's surviving symbols it computes the exact per-phase counts
// F2(s_k, π_{p,l}), sharded per period over the scheduler with per-worker
// scratch, and returns the periodicities in period order, each period's by
// position and then by ascending symbol — the per-period slot seam that
// makes results byte-identical at any worker count, and that the
// distributed tier ships across processes.
//
// Each worker emits into one scratch list it reuses across periods; a
// period's hits are then stored once, at their exact length, and the final
// pass expands them into one slice allocated at the summed length. So
// allocation grows with the periods that emit, and no list grows by append.
func resolvePeriodicities(ses *session) ([]SymbolPeriodicity, error) {
	lo := ses.opt.MinPeriod
	span := ses.opt.MaxPeriod - lo + 1
	perPeriod := make([][]phaseHit, span)
	err := ses.sched.Run(span, 0, func(w int) func(i int) error {
		det := ses.newWorkerDetector()
		var buf []phaseHit
		emit := func(sp SymbolPeriodicity) {
			buf = append(buf, phaseHit{symbol: int32(sp.Symbol), position: int32(sp.Position), f2: sp.F2})
		}
		return func(i int) error {
			p := lo + i
			buf = buf[:0]
			if ses.eng == EngineNaive {
				if p < 1 || p >= ses.n || pairsAt(ses.n, p, 0) < ses.opt.MinPairs {
					return nil
				}
				if err := ses.sched.Tick(int64(ses.n)); err != nil {
					return err
				}
				det.detectNaive(p, ses.opt.Threshold, emit)
			} else {
				if err := ses.sched.Tick(int64(len(ses.surv[i]))); err != nil {
					return err
				}
				det.resolve(p, ses.surv[i], ses.opt.Threshold, emit)
			}
			if len(buf) > 0 {
				perPeriod[i] = slices.Clone(buf)
			}
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, hits := range perPeriod {
		total += len(hits)
	}
	if total == 0 {
		return nil, nil
	}
	out := make([]SymbolPeriodicity, 0, total)
	for i, hits := range perPeriod {
		p := lo + i
		for _, h := range hits {
			l := int(h.position)
			out = append(out, periodicity(int(h.symbol), p, l, h.f2, pairsAt(ses.n, p, l)))
		}
	}
	return out, nil
}

func (resolvePhases) run(ses *session) error {
	pers, err := resolvePeriodicities(ses)
	if err != nil {
		return err
	}
	res := &Result{N: ses.n, Sigma: ses.sigma, Threshold: ses.opt.Threshold, Periodicities: pers}
	finishResult(res)
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

// sweepCandidates is the sweep stage of the detection-only path: one pass
// over the period band [MinPeriod, MaxPeriod] keeps each period whose best
// symbol passes the aggregate prune Survives, written in period order into
// a slice allocated once at the band's size.
type sweepCandidates struct{}

// sweepChunk is the number of periods the candidate sweep scans between
// scheduler ticks: at one tick per period, the ticks took about 60% of the
// sweep's CPU on candidates-large's 2^17-period band.
const sweepChunk = 256

func (sweepCandidates) name() string { return "sweep" }

func (sweepCandidates) run(ses *session) error {
	lo, hi := ses.opt.MinPeriod, ses.opt.MaxPeriod
	out := make([]CandidatePeriod, 0, max(hi-lo+1, 0))
	for p := lo; p <= hi; p += sweepChunk {
		end := min(p+sweepChunk-1, hi)
		if err := ses.sched.Tick(int64(ses.sigma * (end - p + 1))); err != nil {
			return err
		}
		out = sweepCandidateChunk(out, ses.lag, ses.n, p, end, ses.opt.Threshold)
	}
	ses.cands = out
	return nil
}

// sweepCandidateChunk appends to out each period in [lo, hi] whose best
// symbol in the lag-count rows survives the aggregate prune at threshold psi.
func sweepCandidateChunk(out []CandidatePeriod, lag [][]int64, n, lo, hi int, psi float64) []CandidatePeriod {
	for p := lo; p <= hi; p++ {
		// Survives is monotone in r, so the period survives iff its first
		// most-matched symbol does.
		best, bestCount := -1, int64(0)
		for k, row := range lag {
			if r := row[p]; r > bestCount {
				best, bestCount = k, r
			}
		}
		if best >= 0 && Survives(bestCount, max(pairsAt(n, p, p-1), 1), psi) {
			out = append(out, CandidatePeriod{Period: p, BestSymbol: best, MatchCount: bestCount})
		}
	}
	return out
}
