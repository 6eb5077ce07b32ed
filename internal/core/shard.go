package core

// The distributed shard seam. A mine's resolve stage partitions cleanly over
// (symbol × candidate-period) blocks: the coordinator runs detect and sweep
// once (ShardSurvivors), each block's per-period slots are then resolved
// independently from its slice of the survivors (MineShardSlotsFromSurvivors,
// run on worker nodes), and the union of the blocks' slots is exactly the
// single-process resolve output, so reassembly (AssembleFromSlots, run on the
// coordinator) is a concatenation, the canonical result sort, and the
// pattern-enumeration stage over the merged periodicities. Byte-identical by
// construction: every slot value is an integer pair (F2, Pairs) computed from
// the same read-only inputs a single-process mine uses, confidences are
// re-derived from those integers by the same division, and the result sort
// has a total order — merge order can never show through.

import (
	"cmp"
	"context"
	"slices"

	"periodica/internal/conv"
	"periodica/internal/series"
)

// NormalizeOptions validates opt against a series of length n and fills in
// the same defaults MineWorkers applies (period bounds, pattern caps, MinPairs).
// The distributed coordinator normalizes once, so every shard it cuts and
// every worker it dispatches to sees identical explicit bounds.
func NormalizeOptions(opt Options, n int) (Options, error) {
	return opt.withDefaults(n)
}

// ShardSurvivors runs the detect and sweep stages once over the full series
// and returns the per-period survivor lists: entry i holds, ascending, the
// symbols that could still reach the threshold at period opt.MinPeriod+i.
// A coordinator computes this once and ships each shard its slice, so no
// worker repeats the whole-series detection. The lists are exactly the
// sweep a single-process mine runs — same integers, same float comparison —
// so resolve output is unchanged.
func ShardSurvivors(ctx context.Context, s *series.Series, opt Options) ([][]int32, error) {
	ses, err := newSession(s, opt, sessionConfig{parallel: true, cancel: ctx.Err})
	if err != nil {
		return nil, err
	}
	// The FFT sweep reads only the lag counts; the bitset sweep popcounts
	// the indicator vectors, so only it needs them built.
	if err := ses.runPipeline(memoryDetect{lagOnly: ses.eng == EngineFFT}, sweepPeriods{}); err != nil {
		return nil, err
	}
	return ses.surv, nil
}

// MineShardSlotsFromSurvivors computes one shard of a mine from a
// coordinator-shipped survivor set: the symbol periodicities of symbols
// [symLo, symHi) over candidate periods [opt.MinPeriod, opt.MaxPeriod],
// exactly as the resolve stage of a single-process mine would emit them for
// those (symbol, period) cells. The detect stage builds only the indicator
// vectors — the O(σ n log n) whole-series autocorrelation and the sweep are
// skipped because the coordinator already ran them. The slots are raw —
// unsorted across periods, no derived patterns — because assembly is the
// coordinator's job. Engine selection treats the run as parallel (the naive
// engine is substituted by the bitset engine, which shards cleanly and
// shares its semantics exactly), so any engine request yields identical
// slot values. surv must span the shard's period band (entry i is period
// opt.MinPeriod+i) with each list strictly ascending inside [symLo, symHi);
// a missing or malformed set is an invalid-input error, because a worker
// must never resolve cells outside its shard.
func MineShardSlotsFromSurvivors(ctx context.Context, s *series.Series, opt Options, symLo, symHi int, surv [][]int32) ([]SymbolPeriodicity, error) {
	ses, err := newSession(s, opt, sessionConfig{parallel: true, cancel: ctx.Err})
	if err != nil {
		return nil, err
	}
	if symLo < 0 || symHi > ses.sigma || symLo >= symHi {
		return nil, invalidf("core: shard symbol range [%d,%d) outside [0,%d)", symLo, symHi, ses.sigma)
	}
	span := ses.opt.MaxPeriod - ses.opt.MinPeriod + 1
	if len(surv) != span {
		return nil, invalidf("core: survivor set spans %d periods, shard band holds %d", len(surv), span)
	}
	for i, list := range surv {
		prev := int32(symLo) - 1
		for _, k := range list {
			if int(k) < symLo || int(k) >= symHi || k <= prev {
				return nil, invalidf("core: survivor symbol %d at period %d outside shard range [%d,%d) or out of order",
					k, ses.opt.MinPeriod+i, symLo, symHi)
			}
			prev = k
		}
	}
	ses.symLo, ses.symHi = symLo, symHi
	ses.surv = surv
	if err := ses.runPipeline(detectIndicators{}, resolveSlots{}); err != nil {
		return nil, err
	}
	return ses.slots, nil
}

// detectIndicators is the detect stage of the survivor-shipped shard path:
// resolve needs only the per-symbol indicator bit-vectors, so the expensive
// batched autocorrelation never runs on the worker.
type detectIndicators struct{}

func (detectIndicators) name() string { return "detect" }

func (detectIndicators) run(ses *session) error {
	ses.ind = conv.NewIndicators(ses.s)
	return nil
}

// resolveSlots is the resolve stage of a shard: the same per-period slot
// collection resolvePhases performs, flattened in period order and handed
// back raw instead of being assembled into a Result.
type resolveSlots struct{}

func (resolveSlots) name() string { return "resolve" }

func (resolveSlots) run(ses *session) error {
	slots, err := resolvePeriodicities(ses)
	if err != nil {
		return err
	}
	ses.slots = slots
	ses.surv = nil // consumed
	return nil
}

// AssembleFromSlots merges shard slots back into a full Result over s: it
// validates the slots and refuses duplicates (a malformed or duplicated slot
// is an invalid-input error — the coordinator's per-shard-ID merge should have
// made duplicates impossible), re-derives each confidence from its integer
// F2/Pairs pair, applies the canonical result sort, and runs the
// pattern-enumeration stage over the merged periodicities. opt is the
// original full-range option set; with slots from a shard plan covering that
// range, the Result is byte-identical to the single-process MineWorkers.
func AssembleFromSlots(ctx context.Context, s *series.Series, opt Options, slots []SymbolPeriodicity) (*Result, error) {
	ses, err := newSession(s, opt, sessionConfig{parallel: true, cancel: ctx.Err})
	if err != nil {
		return nil, err
	}
	res := &Result{N: ses.n, Sigma: ses.sigma, Threshold: ses.opt.Threshold}
	if len(slots) > 0 {
		res.Periodicities = make([]SymbolPeriodicity, len(slots))
	}
	for i, sp := range slots {
		if sp.Symbol < 0 || sp.Symbol >= ses.sigma ||
			sp.Period < ses.opt.MinPeriod || sp.Period > ses.opt.MaxPeriod ||
			sp.Position < 0 || sp.Position >= sp.Period ||
			sp.F2 < 1 || sp.Pairs < 1 || sp.F2 > sp.Pairs {
			return nil, invalidf("core: shard slot out of range: symbol=%d period=%d position=%d F2=%d pairs=%d",
				sp.Symbol, sp.Period, sp.Position, sp.F2, sp.Pairs)
		}
		sp.Confidence = float64(sp.F2) / float64(sp.Pairs)
		res.Periodicities[i] = sp
	}
	// compareCanonical orders by exactly the cell (period, position,
	// symbol), so after the sort two slots of one cell are adjacent.
	slices.SortFunc(res.Periodicities, compareCanonical)
	for i := 1; i < len(res.Periodicities); i++ {
		if sp := res.Periodicities[i]; compareCanonical(res.Periodicities[i-1], sp) == 0 {
			return nil, invalidf("core: duplicate shard slot: symbol=%d period=%d position=%d",
				sp.Symbol, sp.Period, sp.Position)
		}
	}
	finishResult(res)
	ses.res = res
	if err := ses.runPipeline(enumeratePatterns{}); err != nil {
		return nil, err
	}
	return ses.res, nil
}

// compareCanonical is the canonical periodicity order: by period, then
// position, then symbol. A local resolve emits it directly; shard slots
// arrive in any order, so assembly sorts into it.
func compareCanonical(a, b SymbolPeriodicity) int {
	if c := cmp.Compare(a.Period, b.Period); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Position, b.Position); c != 0 {
		return c
	}
	return cmp.Compare(a.Symbol, b.Symbol)
}
