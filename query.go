package periodica

// The public face of the pattern-query language: a Query compiles once from
// a string like
//
//	conf >= 0.8 and period in 2..512 and symbol in {a, b} and maximal only
//
// into a canonical, validated spec, and it is the one way to direct a mine:
// every mining entry point takes one (MineQueryContext,
// CandidatePeriodsQueryContext, Incremental.MineQueryContext, MineDatabase),
// as does every count-table source's Periodicities (Incremental, Counter,
// Monitor), httpapi and the distributed tier.
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
	"strings"

	"periodica/internal/alphabet"
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
	sp := core.SpecFromOptions(core.Options{
		Threshold:        o.Threshold,
		MinPeriod:        o.MinPeriod,
		MaxPeriod:        o.MaxPeriod,
		Engine:           o.Engine,
		MaxPatternPeriod: o.MaxPatternPeriod,
		MaxPatterns:      o.MaxPatterns,
		MinPairs:         o.MinPairs,
	})
	sp.MaximalOnly = o.MaximalOnly
	return sp
}

// ParseEngine maps an engine name ("auto", "naive", "bitset", "fft") to its
// Engine constant; the empty string means auto. The error matches
// ErrInvalidInput.
func ParseEngine(name string) (Engine, error) { return core.ParseEngine(name) }

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

// CandidatePeriodsQueryContext runs only the O(σ n log maxPeriod) one-pass
// detection phase under the query's threshold, returning the period values
// in the query's period range at which some symbol could be periodic with
// confidence ≥ the threshold. The range is validated against the series as
// a mine validates it. A cancelled or timed-out context aborts the detection
// sweep promptly with the context's error.
func CandidatePeriodsQueryContext(ctx context.Context, s *Series, q *Query) ([]int, error) {
	return candidatePeriods(core.DetectCandidatesRange(ctx, s.inner, q.spec.Threshold, q.spec.MinPeriod, q.spec.MaxPeriod))
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

// periodicities is the one path behind every count-table source's
// Periodicities: the query's mining clauses lowered to core options, the
// table's scan (with a mine's defaults, the period range clipped to the
// tracked bound), the conversion to the public form, then the shaping a
// mine applies. scan is the table's Periodicities method.
func (q *Query) periodicities(alpha *alphabet.Alphabet, scan func(core.Options) ([]core.SymbolPeriodicity, error)) ([]Periodicity, error) {
	pers, err := scan(coreOptions(q.spec))
	if err != nil {
		return nil, err
	}
	res, err := q.shape(alpha.Symbols(), &Result{Periodicities: result.Periodicities(alpha, pers)})
	if err != nil {
		return nil, err
	}
	return res.Periodicities, nil
}

// coreOptions lowers a spec's mining clauses to core options. Every spec
// here comes from CompileQuery or Options, so its engine name is valid.
func coreOptions(sp query.Spec) core.Options {
	opt, _ := core.OptionsFromSpec(sp)
	return opt
}

// candidatePeriods projects the candidates a detection returned onto their
// period values.
func candidatePeriods(cands []core.CandidatePeriod, err error) ([]int, error) {
	if err != nil {
		return nil, err
	}
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.Period
	}
	return out, nil
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
	return q.shape(s.Alphabet(), res)
}

// shape is Shape over an alphabet's symbols. SingleSymbolPatterns
// narrow in lock-step with Periodicities when the result carries them; a
// result of periodicities alone, as the count-table sources build, shapes
// the same way.
func (q *Query) shape(symbols []string, res *Result) (*Result, error) {
	if len(q.spec.Symbols) == 0 && q.spec.Limit == 0 {
		return res, nil
	}
	out := &Result{
		Periodicities:        res.Periodicities,
		SingleSymbolPatterns: res.SingleSymbolPatterns,
		Patterns:             res.Patterns,
		Truncated:            res.Truncated,
	}
	// keepPeriodicities keeps the periodicities at the indices keep accepts,
	// with their single-symbol patterns.
	keepPeriodicities := func(keep func(i int) bool) {
		out.SingleSymbolPatterns = keepIf(out.SingleSymbolPatterns, keep)
		out.Periodicities = keepIf(out.Periodicities, keep)
	}
	if len(q.spec.Symbols) > 0 {
		allowed := make(map[string]bool, len(q.spec.Symbols))
		for _, sym := range q.spec.Symbols {
			allowed[sym] = true
		}
		for _, sym := range symbols {
			if len([]rune(sym)) > 1 {
				return nil, &invalidQueryError{err: errQuery(
					"symbol constraint requires single-rune symbols; alphabet has %q", sym)}
			}
		}
		pers, pats := out.Periodicities, out.Patterns
		keepPeriodicities(func(i int) bool { return allowed[pers[i].Symbol] })
		out.Patterns = keepIf(pats, func(i int) bool { return patternWithin(pats[i].Text, allowed) })
	}
	switch q.spec.LimitBy {
	case query.LimitByConf:
		pers := out.Periodicities
		if keep := topIndices(len(pers), q.spec.Limit, func(i, j int) bool {
			return pers[i].Confidence > pers[j].Confidence
		}); keep != nil {
			keepPeriodicities(func(i int) bool { return keep[i] })
		}
	case query.LimitBySupport:
		pats := out.Patterns
		if keep := topIndices(len(pats), q.spec.Limit, func(i, j int) bool {
			return pats[i].Support > pats[j].Support
		}); keep != nil {
			out.Patterns = keepIf(pats, func(i int) bool { return keep[i] })
		}
	case query.LimitByPeriod:
		if smallest := smallestPeriods(out, q.spec.Limit); smallest != nil {
			pers, pats := out.Periodicities, out.Patterns
			keepPeriodicities(func(i int) bool { return smallest[pers[i].Period] })
			out.Patterns = keepIf(pats, func(i int) bool { return smallest[pats[i].Period] })
		}
	}
	if len(out.SingleSymbolPatterns) < len(res.SingleSymbolPatterns) || len(out.Patterns) < len(res.Patterns) {
		// Every Text of res is a slice of one buffer; copy the kept ones so
		// a small shaped result does not keep the whole buffer alive.
		out.SingleSymbolPatterns = cloneTexts(out.SingleSymbolPatterns)
		out.Patterns = cloneTexts(out.Patterns)
	}
	out.Periods = derivePeriods(out)
	return out, nil
}

// keepIf returns, in order, the entries of in at the indices keep accepts;
// nil when it accepts none.
func keepIf[T any](in []T, keep func(i int) bool) []T {
	var out []T
	for i, v := range in {
		if keep(i) {
			out = append(out, v)
		}
	}
	return out
}

// cloneTexts returns a copy of pats whose texts share no memory with the
// originals.
func cloneTexts(pats []Pattern) []Pattern {
	if pats == nil {
		return nil
	}
	out := make([]Pattern, len(pats))
	for i, pt := range pats {
		pt.Text = strings.Clone(pt.Text)
		out[i] = pt
	}
	return out
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

// smallestPeriods returns the limit smallest distinct periods present in
// the result as a membership set, or nil when nothing would be dropped.
func smallestPeriods(res *Result, limit int) map[int]bool {
	periods := derivePeriods(res)
	if len(periods) <= limit {
		return nil
	}
	keep := make(map[int]bool, limit)
	for _, p := range periods[:limit] {
		keep[p] = true
	}
	return keep
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
