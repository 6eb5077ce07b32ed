package periodica

import (
	"fmt"
	"os"
	"slices"
	"time"

	"periodica/internal/alphabet"
	"periodica/internal/core"
	"periodica/internal/prep"
	"periodica/internal/series"
	"periodica/internal/timegrid"
)

// WriteFile stores the series in the binary on-disk format accepted by
// CandidatePeriodsFile, which holds at most 26 symbols; a refused or failed
// write leaves no file.
func (s *Series) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := series.WriteBinary(f, s.inner); err != nil {
		_ = f.Close()
		_ = os.Remove(path) // best-effort: the write already failed
		return err
	}
	return f.Close()
}

// ReadSeriesFile loads a series stored by WriteFile.
func ReadSeriesFile(path string) (*Series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only; nothing to lose on close
	inner, err := series.ReadBinary(f)
	if err != nil {
		return nil, err
	}
	return &Series{inner: inner}, nil
}

// CandidatePeriodsFile runs the detection phase over a series stored on
// disk by WriteFile in one streaming pass through the block kernel: the
// series is never loaded, the state is O(σ·B) for blocks of B =
// NextPow2(maxPeriod) symbols, and no scratch file is written. It returns
// the periods CandidatePeriodsQueryContext would return for the same series
// and query.
func CandidatePeriodsFile(path string, q *Query) ([]int, error) {
	return candidatePeriods(core.DetectCandidatesFile(path, q.spec.Threshold, q.spec.MinPeriod, q.spec.MaxPeriod))
}

// Event is one timestamped nominal observation of an irregular stream.
type Event struct {
	Time   time.Time
	Symbol string
}

// GridEvents bins irregular timestamped events onto a regular symbol grid at
// the given resolution: empty bins receive the idle symbol, and when several
// events share a bin the earliest wins. The result spans the first to the
// last event and is ready to mine.
func GridEvents(events []Event, bin time.Duration, idle string) (*Series, error) {
	converted := make([]timegrid.Event, len(events))
	for i, e := range events {
		converted[i] = timegrid.Event{Time: e.Time, Symbol: e.Symbol}
	}
	inner, err := timegrid.Grid(converted, timegrid.Config{Bin: bin, Idle: idle})
	if err != nil {
		return nil, err
	}
	return &Series{inner: inner}, nil
}

// SAXOptions tune DiscretizeSAX.
type SAXOptions struct {
	// Levels is the alphabet size σ (2..10); default 5.
	Levels int
	// Frame is the piecewise-aggregate frame length; 1 (default) keeps
	// every point. PAA divides embedded periods by Frame.
	Frame int
	// DetrendWindow, when > 0, removes a centred moving average of that
	// window before normalization.
	DetrendWindow int
}

// DiscretizeSAX converts raw numeric values to symbols through the standard
// SAX pipeline: optional detrend, z-score, optional piecewise aggregate
// approximation, then equal-probability Gaussian levels "a", "b", ….
func DiscretizeSAX(values []float64, opt SAXOptions) (*Series, error) {
	inner, err := prep.SAX(values, prep.SAXConfig{
		Levels: opt.Levels, Frame: opt.Frame, DetrendWindow: opt.DetrendWindow,
	})
	if err != nil {
		return nil, err
	}
	return &Series{inner: inner}, nil
}

// ScoredPeriodicity is a periodicity with its significance against the
// independent-symbols null model.
type ScoredPeriodicity struct {
	Periodicity
	PValue float64
}

// Significant scores every periodicity of res against the null model of
// independently drawn symbols (Binomial(pairs, ρ²) matches) and returns, in
// res order, those with p-value ≤ alpha. When bonferroni is true, alpha is
// divided by the number of hypotheses a full mine over s examines. Raw
// Definition-1 confidence admits confident-looking flukes at large periods
// (one match in a two-slot projection is confidence 1); this separates
// structure from chance.
func Significant(s *Series, res *Result, alpha float64, bonferroni bool) ([]ScoredPeriodicity, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("periodica: alpha %v outside (0,1]", alpha)
	}
	if bonferroni {
		tests := core.TestsForRange(s.inner.Alphabet().Size(), 1, s.Len()/2)
		alpha /= float64(tests)
	}
	sig := core.NewSignificance(s.inner)
	var out []ScoredPeriodicity
	for _, sp := range res.Periodicities {
		k, ok := s.inner.Alphabet().Index(sp.Symbol)
		if !ok {
			return nil, fmt.Errorf("periodica: result symbol %q not in series alphabet", sp.Symbol)
		}
		pv := sig.PValue(core.SymbolPeriodicity{
			Symbol: k, Period: sp.Period, Position: sp.Position,
			F2: sp.Matches, Pairs: sp.Pairs, Confidence: sp.Confidence,
		})
		if pv <= alpha {
			out = append(out, ScoredPeriodicity{Periodicity: sp, PValue: pv})
		}
	}
	return out, nil
}

// ErrInvalidInput marks mining errors caused by invalid caller input (a
// threshold outside (0,1], an impossible period range, …) as opposed to
// internal or cancellation failures. Services front-ending the miner match
// it with errors.Is to map bad input to a 4xx rather than a 5xx.
var ErrInvalidInput = core.ErrInvalidInput

// Counter maintains the periodicities of an unbounded stream with memory
// independent of the stream length: only the first and last maxPeriod
// symbols and the per-(symbol, period, position) counts are retained, so it
// runs forever in at most O(σ·maxPeriod²) bytes. The counts follow the
// stream: a symbol's are made on its first match, so symbols that never
// repeat within maxPeriod cost one slice header each. It cannot mine
// patterns (that needs the data), and unlike Monitor nothing ever ages out
// — counts cover the whole stream. Two Counters over adjacent stretches of
// one stream combine with Merge.
type Counter struct {
	inner *core.Counts
	alpha *alphabet.Alphabet
}

// NewCounter returns a bounded-memory stream counter over the given
// alphabet, tracking periods 1..maxPeriod.
func NewCounter(maxPeriod int, symbols ...string) (*Counter, error) {
	alpha, err := alphabet.New(symbols...)
	if err != nil {
		return nil, err
	}
	inner, err := core.NewCounts(alpha.Size(), maxPeriod)
	if err != nil {
		return nil, err
	}
	return &Counter{inner: inner, alpha: alpha}, nil
}

// Append ingests the next symbol; O(maxPeriod).
func (c *Counter) Append(symbol string) error {
	k, err := core.SymbolIndex(c.alpha, symbol)
	if err != nil {
		return err
	}
	return c.inner.Append(k)
}

// Len returns the number of symbols seen.
func (c *Counter) Len() int { return c.inner.Length }

// MemoryBytes estimates the counter's resident size: the counts made so
// far and the retained symbols. Its bound does not depend on Len.
func (c *Counter) MemoryBytes() int { return c.inner.MemoryBytes() }

// Periodicities returns the whole-stream periodicities that a mine of the
// stream with q reports, the period range clipped to the tracked bound.
func (c *Counter) Periodicities(q *Query) ([]Periodicity, error) {
	return q.periodicities(c.alpha, c.inner.Periodicities)
}

// Merge appends the stretch next has counted to the one c has, making c the
// counter of the concatenation: the counts add and the matches spanning the
// boundary are stitched from the retained symbols. Both counters must share
// the symbols, in the same order, and the period bound; otherwise the error
// matches ErrInvalidInput. next is left untouched.
func (c *Counter) Merge(next *Counter) error {
	if !slices.Equal(c.alpha.Symbols(), next.alpha.Symbols()) {
		return fmt.Errorf("periodica: merging counters over symbols %v and %v: %w", c.alpha, next.alpha, ErrInvalidInput)
	}
	return c.inner.Merge(next.inner)
}

// Describe renders a periodicity the way the paper narrates its Table 2,
// e.g. "under 200 transactions occurs in hour 7 of the day for 80% of the
// cycles". levelNames maps symbols (in alphabet order) to meanings; unit and
// cycle name the timestamp granularity ("hour", "day") — any may be empty.
func (s *Series) Describe(sp Periodicity, levelNames []string, unit, cycle string) string {
	k, ok := s.inner.Alphabet().Index(sp.Symbol)
	if !ok {
		return fmt.Sprintf("unknown symbol %q", sp.Symbol)
	}
	it := core.Interpretation{LevelNames: levelNames, Unit: unit, Cycle: cycle}
	return it.Describe(s.inner.Alphabet(), core.SymbolPeriodicity{
		Symbol: k, Period: sp.Period, Position: sp.Position,
		F2: sp.Matches, Pairs: sp.Pairs, Confidence: sp.Confidence,
	})
}

// Monitor maintains the periodicities of the most recent Window symbols of
// an unbounded stream: arriving symbols add their matches, symbols sliding
// out retract theirs, so stale behaviour ages out of the answers. It keeps
// the count table a Counter keeps, made as symbols match, plus the last
// window symbols, kept as they arrive. Positions are reported in absolute
// stream phase (stream index mod period), keeping a stable pattern at a
// stable label while the window slides.
type Monitor struct {
	inner *core.WindowMiner
	alpha *alphabet.Alphabet
}

// NewMonitor returns a sliding-window miner over the given alphabet,
// tracking periods 1..maxPeriod within a window of the given size
// (window > maxPeriod).
func NewMonitor(maxPeriod, window int, symbols ...string) (*Monitor, error) {
	alpha, err := alphabet.New(symbols...)
	if err != nil {
		return nil, err
	}
	inner, err := core.NewWindowMiner(alpha.Size(), maxPeriod, window)
	if err != nil {
		return nil, err
	}
	return &Monitor{inner: inner, alpha: alpha}, nil
}

// Append ingests the next symbol, evicting the oldest once the window is
// full; O(maxPeriod).
func (m *Monitor) Append(symbol string) error {
	k, err := core.SymbolIndex(m.alpha, symbol)
	if err != nil {
		return err
	}
	return m.inner.Append(k)
}

// Len returns the number of symbols currently in the window.
func (m *Monitor) Len() int { return m.inner.Len() }

// Periodicities returns the periodicities of the current window that a mine
// of the window with q reports, the period range clipped to the tracked
// bound; positions stay in absolute stream phase.
func (m *Monitor) Periodicities(q *Query) ([]Periodicity, error) {
	return q.periodicities(m.alpha, m.inner.Periodicities)
}

// DatabasePattern is a periodic pattern aggregated over a database of
// series: it reached the per-series threshold in Sequences of the mined
// series, with MeanSupport averaged over those.
type DatabasePattern struct {
	Period      int
	Text        string
	Sequences   int
	MeanSupport float64
}

// MineDatabase mines every series of a time-series database — e.g. one
// consumption series per customer — under the mining clauses of q and
// aggregates the multi-symbol patterns across series: a pattern is reported
// when it reaches q's threshold in at least minFraction of the series. The
// shaping clauses (symbol constraint, limit, maximal only) and workers do not
// apply to the aggregate. All series must use the same symbols; the first
// series' alphabet ordering governs.
func MineDatabase(db []*Series, q *Query, minFraction float64) ([]DatabasePattern, error) {
	if len(db) == 0 {
		return nil, fmt.Errorf("periodica: empty database")
	}
	alpha := db[0].inner.Alphabet()
	inner := make([]*series.Series, len(db))
	for i, s := range db {
		re, err := reencode(s.inner, alpha)
		if err != nil {
			return nil, fmt.Errorf("periodica: series %d: %v", i, err)
		}
		inner[i] = re
	}
	res, err := core.MineDatabase(inner, coreOptions(q.spec), minFraction)
	if err != nil {
		return nil, err
	}
	var out []DatabasePattern
	for _, dp := range res.Patterns {
		out = append(out, DatabasePattern{
			Period:      dp.Pattern.Period,
			Text:        dp.Pattern.Render(alpha),
			Sequences:   dp.Sequences,
			MeanSupport: dp.MeanSupport,
		})
	}
	return out, nil
}

// reencode maps a series onto the target alphabet by symbol name.
func reencode(s *series.Series, alpha *alphabet.Alphabet) (*series.Series, error) {
	if s.Alphabet() == alpha {
		return s, nil
	}
	idx := make([]int, s.Len())
	for i := 0; i < s.Len(); i++ {
		name := s.Alphabet().Symbol(s.At(i))
		k, ok := alpha.Index(name)
		if !ok {
			return nil, fmt.Errorf("symbol %q not in the database alphabet %v", name, alpha)
		}
		idx[i] = k
	}
	return series.New(alpha, idx)
}
