// Package query implements the pattern-query language: a small
// statically-typed expression language in which callers state what they want
// mined — confidence threshold, period range, symbol constraints, output
// shaping, engine and budget hints — compiled once into a canonical,
// validated, serializable Spec that every layer of the system consumes.
//
// A query is a conjunction of typed clauses:
//
//	conf >= 0.8 and period in 2..512 and symbol in {a, b} and maximal only
//
// The front end is staged classically — lexer → parser → typechecker →
// compiler — and all validation happens exactly once, here: the option
// structs of the public API, the HTTP API, and the shard wire are thin
// builders for a Spec, so defaults and error messages cannot drift between
// layers. Compile is memoized through a bounded cache (standing queries and
// shard fan-out repeat the same string), instrumented in obs.Query().
//
// The canonical form — Spec.Render — orders clauses deterministically and
// formats every literal minimally, so compile∘render is a fixed point:
// rendering a compiled Spec and compiling the result yields the same Spec.
// That is what lets the distributed coordinator put the canonical form on
// the /v1/shard wire and every worker provably run the same query.
package query

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Engine names accepted by the "engine" clause; they mirror
// core.Engine.String. The empty string means "unset" and resolves to auto.
const (
	EngineAuto   = "auto"
	EngineNaive  = "naive"
	EngineBitset = "bitset"
	EngineFFT    = "fft"
)

// Limit orderings accepted by the "limit N by ..." clause.
const (
	LimitByConf    = "conf"
	LimitBySupport = "support"
	LimitByPeriod  = "period"
)

// Discretization schemes accepted by the "discretize" clause.
const (
	DiscretizeWidth = "width"
	DiscretizeSAX   = "sax"
)

// Spec is a compiled pattern query: the one canonical description of a mine
// that every layer consumes. The zero value of each field means "use the
// default" (filled by Normalize), matching the sentinel conventions of the
// option structs the Spec replaces, so converting between them is lossless.
type Spec struct {
	// Threshold is the periodicity threshold ψ ∈ (0,1] ("conf >= ψ").
	// Required: a Spec with Threshold 0 does not validate.
	Threshold float64 `json:"threshold"`
	// MinPeriod and MaxPeriod bound candidate periods inclusively
	// ("period in a..b"); 0 defaults to 1 and n/2.
	MinPeriod int `json:"minPeriod,omitempty"`
	MaxPeriod int `json:"maxPeriod,omitempty"`
	// Engine is the evaluation strategy by name ("engine fft"); empty
	// means auto.
	Engine string `json:"engine,omitempty"`
	// MaxPatternPeriod caps multi-symbol pattern enumeration ("pattern
	// period <= p"); 0 defaults to 128, negative ("pattern period off")
	// disables multi-symbol mining.
	MaxPatternPeriod int `json:"maxPatternPeriod,omitempty"`
	// MaxPatterns caps emitted multi-symbol patterns ("patterns <= n");
	// 0 defaults to 10000.
	MaxPatterns int `json:"maxPatterns,omitempty"`
	// MaximalOnly keeps only maximal multi-symbol patterns ("maximal
	// only").
	MaximalOnly bool `json:"maximalOnly,omitempty"`
	// MinPairs is the minimum projection-pair count behind a periodicity
	// ("pairs >= k"); 0 defaults to 1, the paper's semantics.
	MinPairs int `json:"minPairs,omitempty"`
	// Symbols, when non-empty, restricts results to periodicities and
	// patterns over these symbols ("symbol in {a, b}"); sorted, distinct.
	Symbols []string `json:"symbols,omitempty"`
	// Limit caps the result to the top Limit entries under the LimitBy
	// ordering ("limit 100 by conf"); 0 means unlimited.
	Limit   int    `json:"limit,omitempty"`
	LimitBy string `json:"limitBy,omitempty"`
	// Levels and Discretize choose how numeric input is symbolized
	// ("levels 5 and discretize sax"); 0/"" mean the consumer's default.
	Levels     int    `json:"levels,omitempty"`
	Discretize string `json:"discretize,omitempty"`
	// Workers is a parallelism hint for entry points that accept one
	// ("workers 8"); 0 means the runtime decides.
	Workers int `json:"workers,omitempty"`
}

// validEngine reports whether name is a known engine spelling ("" = unset).
func validEngine(name string) bool {
	switch name {
	case "", EngineAuto, EngineNaive, EngineBitset, EngineFFT:
		return true
	}
	return false
}

// Validate checks every series-length-independent invariant of the Spec.
// This is the single validator the option structs of all layers funnel
// through; Normalize adds the length-dependent checks and the defaults.
func (sp *Spec) Validate() error {
	if sp.Threshold <= 0 || sp.Threshold > 1 {
		return fmt.Errorf("threshold ψ=%v outside (0,1]", sp.Threshold)
	}
	if sp.MinPeriod < 0 {
		return fmt.Errorf("min period %d negative", sp.MinPeriod)
	}
	if sp.MaxPeriod < 0 {
		return fmt.Errorf("max period %d negative", sp.MaxPeriod)
	}
	if sp.MinPeriod > 0 && sp.MaxPeriod > 0 && sp.MinPeriod > sp.MaxPeriod {
		return fmt.Errorf("invalid period range [%d,%d]", sp.MinPeriod, sp.MaxPeriod)
	}
	if !validEngine(sp.Engine) {
		return fmt.Errorf("unknown engine %q", sp.Engine)
	}
	if sp.MaxPatterns < 0 {
		return fmt.Errorf("patterns cap %d negative", sp.MaxPatterns)
	}
	if sp.MinPairs < 0 {
		return fmt.Errorf("MinPairs %d < 1", sp.MinPairs)
	}
	if sp.Limit < 0 {
		return fmt.Errorf("limit %d negative", sp.Limit)
	}
	switch sp.LimitBy {
	case "":
		if sp.Limit > 0 {
			return fmt.Errorf("limit %d has no ordering; add \"by conf\", \"by support\", or \"by period\"", sp.Limit)
		}
	case LimitByConf, LimitBySupport, LimitByPeriod:
		if sp.Limit == 0 {
			return fmt.Errorf("limit ordering %q without a limit", sp.LimitBy)
		}
	default:
		return fmt.Errorf("unknown limit ordering %q", sp.LimitBy)
	}
	if sp.Levels < 0 {
		return fmt.Errorf("levels must be non-negative, got %d", sp.Levels)
	}
	if sp.Levels != 0 && (sp.Levels < 2 || sp.Levels > 26) {
		return fmt.Errorf("levels %d outside 2..26", sp.Levels)
	}
	switch sp.Discretize {
	case "", DiscretizeWidth, DiscretizeSAX:
	default:
		return fmt.Errorf("unknown discretization %q", sp.Discretize)
	}
	if sp.Workers < 0 {
		return fmt.Errorf("workers %d negative", sp.Workers)
	}
	for i, sym := range sp.Symbols {
		if sym == "" {
			return fmt.Errorf("empty symbol in symbol set")
		}
		if i > 0 && sp.Symbols[i-1] >= sym {
			return fmt.Errorf("symbol set not sorted and distinct at %q", sym)
		}
	}
	return nil
}

// Normalize validates the Spec against a series of length n and fills every
// default, returning the fully resolved Spec. It is the one place defaults
// live: core.Options.withDefaults, the HTTP layers, and the distributed
// coordinator all delegate here, so a default changed here changes
// everywhere at once. The error messages are stable — core wraps them with
// its package prefix unchanged.
func (sp Spec) Normalize(n int) (Spec, error) {
	if err := sp.Validate(); err != nil {
		return sp, err
	}
	if sp.MinPeriod == 0 {
		sp.MinPeriod = 1
	}
	// The range may be empty (MaxPeriod = MinPeriod−1) only when MaxPeriod
	// was defaulted: the paper's loop over p = 1..n/2 has no iterations when
	// n = 1, and that mine finds nothing. An explicit range may not be empty.
	floor := sp.MinPeriod
	if sp.MaxPeriod == 0 {
		sp.MaxPeriod = n / 2
		floor = sp.MinPeriod - 1
	}
	if sp.MinPeriod < 1 || sp.MaxPeriod > n || sp.MaxPeriod < floor {
		return sp, fmt.Errorf("invalid period range [%d,%d] for n=%d", sp.MinPeriod, sp.MaxPeriod, n)
	}
	if sp.MaxPatternPeriod == 0 {
		sp.MaxPatternPeriod = 128
	}
	if sp.MaxPatterns == 0 {
		sp.MaxPatterns = 10000
	}
	if sp.MinPairs == 0 {
		sp.MinPairs = 1
	}
	if sp.Engine == "" {
		sp.Engine = EngineAuto
	}
	return sp, nil
}

// NormalizeSymbols sorts and dedupes a symbol set into the canonical order
// Validate requires.
func NormalizeSymbols(symbols []string) []string {
	if len(symbols) == 0 {
		return nil
	}
	out := append([]string(nil), symbols...)
	sort.Strings(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// bareSymbol reports whether a symbol renders unquoted: it must lex back as
// exactly the single word or integer token it came from (a digit-led word
// like "0A" reads as a malformed number, so it must be quoted).
func bareSymbol(s string) bool {
	toks, err := lex(s)
	if err != nil || len(toks) != 2 {
		return false
	}
	switch toks[0].kind {
	case tokWord, tokInt:
		return toks[0].text == s
	}
	return false
}

// formatFloat renders a float minimally and round-trip exactly, so the
// canonical form re-compiles to the identical Spec.
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// Render writes the Spec in canonical query form: clauses in a fixed order,
// defaults omitted, every literal formatted minimally. Compiling the
// rendered string yields the same Spec (the fixed point FuzzQueryParse
// pins), and the rendered string is what travels on the /v1/shard wire.
func (sp *Spec) Render() string {
	var cl []string
	add := func(format string, args ...any) {
		cl = append(cl, fmt.Sprintf(format, args...))
	}
	add("conf >= %s", formatFloat(sp.Threshold))
	switch {
	case sp.MinPeriod > 0 && sp.MaxPeriod > 0 && sp.MinPeriod == sp.MaxPeriod:
		add("period = %d", sp.MinPeriod)
	case sp.MinPeriod > 0 && sp.MaxPeriod > 0:
		add("period in %d..%d", sp.MinPeriod, sp.MaxPeriod)
	case sp.MinPeriod > 0:
		add("period >= %d", sp.MinPeriod)
	case sp.MaxPeriod > 0:
		add("period <= %d", sp.MaxPeriod)
	}
	if sp.MinPairs > 0 {
		add("pairs >= %d", sp.MinPairs)
	}
	if len(sp.Symbols) > 0 {
		quoted := make([]string, len(sp.Symbols))
		for i, s := range sp.Symbols {
			if bareSymbol(s) {
				quoted[i] = s
			} else {
				quoted[i] = strconv.Quote(s)
			}
		}
		add("symbol in {%s}", strings.Join(quoted, ", "))
	}
	if sp.MaximalOnly {
		cl = append(cl, "maximal only")
	}
	if sp.MaxPatternPeriod < 0 {
		cl = append(cl, "pattern period off")
	} else if sp.MaxPatternPeriod > 0 {
		add("pattern period <= %d", sp.MaxPatternPeriod)
	}
	if sp.MaxPatterns > 0 {
		add("patterns <= %d", sp.MaxPatterns)
	}
	if sp.Engine != "" {
		add("engine %s", sp.Engine)
	}
	if sp.Limit > 0 {
		add("limit %d by %s", sp.Limit, sp.LimitBy)
	}
	if sp.Levels > 0 {
		add("levels %d", sp.Levels)
	}
	if sp.Discretize != "" {
		add("discretize %s", sp.Discretize)
	}
	if sp.Workers > 0 {
		add("workers %d", sp.Workers)
	}
	return strings.Join(cl, " and ")
}

// Equal reports whether two Specs describe the same query.
func (sp *Spec) Equal(other *Spec) bool {
	if sp.Threshold != other.Threshold || //opvet:ignore floatcmp spec equality is identity of the written query, not numeric closeness
		sp.MinPeriod != other.MinPeriod || sp.MaxPeriod != other.MaxPeriod ||
		sp.Engine != other.Engine ||
		sp.MaxPatternPeriod != other.MaxPatternPeriod ||
		sp.MaxPatterns != other.MaxPatterns ||
		sp.MaximalOnly != other.MaximalOnly ||
		sp.MinPairs != other.MinPairs ||
		sp.Limit != other.Limit || sp.LimitBy != other.LimitBy ||
		sp.Levels != other.Levels || sp.Discretize != other.Discretize ||
		sp.Workers != other.Workers ||
		len(sp.Symbols) != len(other.Symbols) {
		return false
	}
	for i, s := range sp.Symbols {
		if other.Symbols[i] != s {
			return false
		}
	}
	return true
}
