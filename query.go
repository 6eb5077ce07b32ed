package periodica

// The public face of the pattern-query language: a Query compiles once from
// a string like
//
//	conf >= 0.8 and period in 2..512 and symbol in {a, b} and maximal only
//
// into a canonical, validated spec, and it is the one way to direct a mine:
// every mining entry point takes one (MineQueryContext,
// CandidatePeriodsQueryContext, Stream.FinishQueryContext,
// Incremental.MineQueryContext), as do httpapi and the distributed tier.
// Options is a builder for the mining clauses (QueryFromOptions). The
// mining clauses configure the core session, "workers N" its scheduler
// width; the shaping clauses (symbol constraints, limit) are applied to the
// Result by Shape; the input clauses (levels, discretize) drive
// DiscretizeValues.

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"periodica/internal/core"
	"periodica/internal/query"
	"periodica/internal/result"
	"periodica/internal/series"
)

// Query is a compiled pattern query: the typed, canonical form of a query
// string. The zero value is not usable; build one with CompileQuery.
type Query struct {
	spec   query.Spec
	source string
}

// invalidQueryError marks query compilation and shaping failures as invalid
// input, so services map them to client errors with errors.Is(err,
// ErrInvalidInput) exactly like struct-path validation failures.
type invalidQueryError struct{ err error }

func (e *invalidQueryError) Error() string { return e.err.Error() }

func (e *invalidQueryError) Unwrap() error { return e.err }

func (e *invalidQueryError) Is(target error) bool { return target == ErrInvalidInput }

// CompileQuery compiles a pattern-query string. Compilation validates
// everything knowable without a concrete series — clause types, value
// ranges, enum spellings, duplicates — so a Query that compiles can only
// fail against a series whose length contradicts its period range. Repeated
// compilations of the same string are served from a bounded process-wide
// cache. The error matches ErrInvalidInput.
func CompileQuery(src string) (*Query, error) {
	sp, err := query.Compile(src)
	if err != nil {
		return nil, &invalidQueryError{err: err}
	}
	return &Query{spec: sp, source: src}, nil
}

// QueryFromOptions lifts legacy Options to the equivalent Query — the exact
// inverse mapping the golden tests pin field by field. Options carry no
// symbol constraints or limits, so the resulting query only has mining
// clauses.
func QueryFromOptions(opt Options) *Query {
	sp := opt.spec()
	return &Query{spec: sp, source: sp.Render()}
}

// spec lifts Options to the query Spec it abbreviates.
func (o Options) spec() query.Spec {
	return query.Spec{
		Threshold:        o.Threshold,
		MinPeriod:        o.MinPeriod,
		MaxPeriod:        o.MaxPeriod,
		Engine:           o.Engine.name(),
		MaxPatternPeriod: o.MaxPatternPeriod,
		MaxPatterns:      o.MaxPatterns,
		MaximalOnly:      o.MaximalOnly,
		MinPairs:         o.MinPairs,
	}
}

// name maps a public Engine to its query spelling ("" = unset/auto).
func (e Engine) name() string {
	switch e {
	case EngineNaive:
		return query.EngineNaive
	case EngineBitset:
		return query.EngineBitset
	case EngineFFT:
		return query.EngineFFT
	}
	return ""
}

// ParseEngine maps an engine name ("auto", "naive", "bitset", "fft") to its
// Engine constant; the empty string means auto. The error matches
// ErrInvalidInput.
func ParseEngine(name string) (Engine, error) {
	switch name {
	case "", query.EngineAuto:
		return EngineAuto, nil
	case query.EngineNaive:
		return EngineNaive, nil
	case query.EngineBitset:
		return EngineBitset, nil
	case query.EngineFFT:
		return EngineFFT, nil
	}
	return 0, &invalidQueryError{err: errQuery("unknown engine %q", name)}
}

// String returns the canonical form of the query: clauses in fixed order,
// literals formatted minimally. Compiling the canonical form yields the
// same Query.
func (q *Query) String() string { return q.spec.Render() }

// Source returns the string the query was compiled from.
func (q *Query) Source() string { return q.source }

// MarshalJSON renders the compiled spec (not the source string), so logs
// and the `opminer query check` subcommand show the typed plan.
func (q *Query) MarshalJSON() ([]byte, error) { return json.Marshal(q.spec) }

// Options returns the mining options the query compiles to. Shaping and
// input clauses (symbol constraints, limit, levels, discretize) and the
// worker count do not appear here: they act outside the mining options.
func (q *Query) Options() Options {
	eng, _ := ParseEngine(q.spec.Engine) // validated at compile time
	return Options{
		Threshold:        q.spec.Threshold,
		MinPeriod:        q.spec.MinPeriod,
		MaxPeriod:        q.spec.MaxPeriod,
		Engine:           eng,
		MaxPatternPeriod: q.spec.MaxPatternPeriod,
		MaxPatterns:      q.spec.MaxPatterns,
		MaximalOnly:      q.spec.MaximalOnly,
		MinPairs:         q.spec.MinPairs,
	}
}

// Symbols returns the query's symbol constraint (sorted, distinct), or nil.
func (q *Query) Symbols() []string { return append([]string(nil), q.spec.Symbols...) }

// Limit returns the result cap and its ordering ("conf", "support",
// "period"); 0 means unlimited.
func (q *Query) Limit() (int, string) { return q.spec.Limit, q.spec.LimitBy }

// Levels returns the discretization level count; 0 means the default.
func (q *Query) Levels() int { return q.spec.Levels }

// Discretization returns the discretization scheme ("width", "sax"); empty
// means the consumer's default (equal-width).
func (q *Query) Discretization() string { return q.spec.Discretize }

// Workers returns the query's worker count for a mine; 0 (no "workers"
// clause) and 1 both mean the serial scheduler.
func (q *Query) Workers() int { return q.spec.Workers }

// DiscretizeValues symbolizes raw numeric values the way the query asks:
// "levels N" sets the alphabet size (default 5) and "discretize sax"
// selects the SAX pipeline over the default equal-width binning.
func (q *Query) DiscretizeValues(values []float64) (*Series, error) {
	levels := q.spec.Levels
	if levels == 0 {
		levels = 5
	}
	if q.spec.Discretize == query.DiscretizeSAX {
		return DiscretizeSAX(values, SAXOptions{Levels: levels})
	}
	return DiscretizeEqualWidth(values, levels)
}

// MineQueryContext mines s as the query directs and shapes the result.
// The query's "workers N" clause spreads the per-period work and the FFT
// precompute over N cores (capped at GOMAXPROCS); without it the mine runs
// on the serial scheduler. The result is identical either way. The context
// is polled at every candidate period, inside the per-symbol detection
// loop, and throughout pattern enumeration, so a cancelled or timed-out
// context aborts the mine promptly with the context's error and no partial
// result.
func MineQueryContext(ctx context.Context, s *Series, q *Query) (*Result, error) {
	return q.mine(ctx, s.inner, coreOptions(q.spec))
}

// CandidatePeriodsQueryContext runs only the O(σ n log n) one-pass
// detection phase under the query's threshold and period bound, returning
// the period values at which some symbol could be periodic with confidence
// ≥ the threshold. A cancelled or timed-out context aborts the detection
// sweep promptly with the context's error.
func CandidatePeriodsQueryContext(ctx context.Context, s *Series, q *Query) ([]int, error) {
	cands, err := core.DetectCandidatesContext(ctx, s.inner, q.spec.Threshold, q.spec.MaxPeriod)
	if err != nil {
		return nil, err
	}
	return candidatePeriods(cands), nil
}

// FinishQueryContext mines the stream ingested so far as the query directs,
// exactly as MineQueryContext would mine the same symbols. The stream can
// keep ingesting and be mined again later.
func (st *Stream) FinishQueryContext(ctx context.Context, q *Query) (*Result, error) {
	return q.mine(ctx, st.inner.Series(), coreOptions(q.spec))
}

// MineQueryContext mines the online stream seen so far as the query
// directs, with the period range capped at the miner's tracked bound.
func (inc *Incremental) MineQueryContext(ctx context.Context, q *Query) (*Result, error) {
	return q.mine(ctx, inc.inner.Series(), inc.inner.MineOptions(coreOptions(q.spec)))
}

// mine is the one path behind every full-mine entry point: the core session
// at the query's worker count, the conversion to the public Result (with
// the maximal-only filter), then Shape.
func (q *Query) mine(ctx context.Context, inner *series.Series, opt core.Options) (*Result, error) {
	res, err := core.MineWorkers(ctx, inner, opt, q.spec.Workers)
	if err != nil {
		return nil, err
	}
	return q.Shape(&Series{inner: inner}, result.FromCore(inner.Alphabet(), res, q.spec.MaximalOnly))
}

// coreOptions lowers a spec's mining clauses to core options. Every spec
// here comes from CompileQuery or Options, so its engine name is valid.
func coreOptions(sp query.Spec) core.Options {
	opt, _ := core.OptionsFromSpec(sp)
	return opt
}

// candidatePeriods projects detected candidates onto their period values.
func candidatePeriods(cands []core.CandidatePeriod) []int {
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.Period
	}
	return out
}

// Shape applies the query's output-shaping clauses to a mined result: the
// symbol constraint drops periodicities and patterns over other symbols,
// and "limit N by conf|support|period" keeps the top N under that ordering
// (ties broken by the result's canonical order, so shaping is
// deterministic). The series provides the alphabet for exact multi-symbol
// pattern filtering; shaping a filtered query over a multi-rune alphabet is
// rejected, matching the wire format's single-rune constraint. Without
// shaping clauses the result is returned unchanged.
func (q *Query) Shape(s *Series, res *Result) (*Result, error) {
	if len(q.spec.Symbols) == 0 && q.spec.Limit == 0 {
		return res, nil
	}
	out := &Result{
		Periodicities:        res.Periodicities,
		SingleSymbolPatterns: res.SingleSymbolPatterns,
		Patterns:             res.Patterns,
		Truncated:            res.Truncated,
	}
	if len(q.spec.Symbols) > 0 {
		allowed := make(map[string]bool, len(q.spec.Symbols))
		for _, sym := range q.spec.Symbols {
			allowed[sym] = true
		}
		for _, sym := range s.Alphabet() {
			if len([]rune(sym)) > 1 {
				return nil, &invalidQueryError{err: errQuery(
					"symbol constraint requires single-rune symbols; alphabet has %q", sym)}
			}
		}
		var pers []Periodicity
		var singles []Pattern
		for i, sp := range out.Periodicities {
			if allowed[sp.Symbol] {
				pers = append(pers, sp)
				singles = append(singles, out.SingleSymbolPatterns[i])
			}
		}
		out.Periodicities, out.SingleSymbolPatterns = pers, singles
		var multis []Pattern
		for _, pt := range out.Patterns {
			if patternWithin(pt.Text, allowed) {
				multis = append(multis, pt)
			}
		}
		out.Patterns = multis
	}
	switch q.spec.LimitBy {
	case query.LimitByConf:
		keep := topIndices(len(out.Periodicities), q.spec.Limit, func(i, j int) bool {
			return out.Periodicities[i].Confidence > out.Periodicities[j].Confidence
		})
		out.Periodicities = selectPeriodicities(out.Periodicities, keep)
		out.SingleSymbolPatterns = selectPatterns(out.SingleSymbolPatterns, keep)
	case query.LimitBySupport:
		keep := topIndices(len(out.Patterns), q.spec.Limit, func(i, j int) bool {
			return out.Patterns[i].Support > out.Patterns[j].Support
		})
		out.Patterns = selectPatterns(out.Patterns, keep)
	case query.LimitByPeriod:
		if smallest := smallestPeriods(out, q.spec.Limit); smallest != nil {
			out.Periodicities, out.SingleSymbolPatterns = filterByPeriod(
				out.Periodicities, out.SingleSymbolPatterns, smallest)
			var multis []Pattern
			for _, pt := range out.Patterns {
				if smallest[pt.Period] {
					multis = append(multis, pt)
				}
			}
			out.Patterns = multis
		}
	}
	out.Periods = derivePeriods(out)
	return out, nil
}

// errQuery builds a plain query-layer error message.
func errQuery(format string, args ...any) error {
	return fmt.Errorf("periodica: "+format, args...)
}

// patternWithin reports whether every fixed (non-'*') symbol of a rendered
// pattern is in the allowed set. Patterns render one rune per position for
// single-rune alphabets, which Shape has already required.
func patternWithin(text string, allowed map[string]bool) bool {
	for _, r := range text {
		if r == '*' {
			continue
		}
		if !allowed[string(r)] {
			return false
		}
	}
	return true
}

// topIndices returns the indices of the top limit entries under less as a
// membership set, breaking ties by original index so selection is
// deterministic and the survivors keep their canonical order.
func topIndices(n, limit int, less func(i, j int) bool) map[int]bool {
	if n <= limit {
		return nil // nothing to drop
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return less(idx[a], idx[b]) })
	keep := make(map[int]bool, limit)
	for _, i := range idx[:limit] {
		keep[i] = true
	}
	return keep
}

func selectPeriodicities(in []Periodicity, keep map[int]bool) []Periodicity {
	if keep == nil {
		return in
	}
	var out []Periodicity
	for i, sp := range in {
		if keep[i] {
			out = append(out, sp)
		}
	}
	return out
}

func selectPatterns(in []Pattern, keep map[int]bool) []Pattern {
	if keep == nil {
		return in
	}
	var out []Pattern
	for i, pt := range in {
		if keep[i] {
			out = append(out, pt)
		}
	}
	return out
}

// smallestPeriods returns the limit smallest distinct periods present in
// the result as a membership set, or nil when nothing would be dropped.
func smallestPeriods(res *Result, limit int) map[int]bool {
	distinct := map[int]bool{}
	for _, sp := range res.Periodicities {
		distinct[sp.Period] = true
	}
	for _, pt := range res.Patterns {
		distinct[pt.Period] = true
	}
	if len(distinct) <= limit {
		return nil
	}
	periods := make([]int, 0, len(distinct))
	for p := range distinct {
		periods = append(periods, p)
	}
	sort.Ints(periods)
	keep := make(map[int]bool, limit)
	for _, p := range periods[:limit] {
		keep[p] = true
	}
	return keep
}

func filterByPeriod(pers []Periodicity, singles []Pattern, keep map[int]bool) ([]Periodicity, []Pattern) {
	var outP []Periodicity
	var outS []Pattern
	for i, sp := range pers {
		if keep[sp.Period] {
			outP = append(outP, sp)
			outS = append(outS, singles[i])
		}
	}
	return outP, outS
}

// derivePeriods recomputes the distinct ascending period list from the
// shaped result, the same derivation a mine applies to its periodicities.
func derivePeriods(res *Result) []int {
	distinct := map[int]bool{}
	for _, sp := range res.Periodicities {
		distinct[sp.Period] = true
	}
	for _, pt := range res.Patterns {
		distinct[pt.Period] = true
	}
	if len(distinct) == 0 {
		return nil
	}
	periods := make([]int, 0, len(distinct))
	for p := range distinct {
		periods = append(periods, p)
	}
	sort.Ints(periods)
	return periods
}
