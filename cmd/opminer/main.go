// Command opminer mines obscure periodic patterns from a symbol series: the
// period is not an input — discovering it is part of the mining process.
//
// Input formats (-format):
//
//	text    single-rune symbols, whitespace ignored (default)
//	binary  the periodica binary series format (opgen/…)
//	values  numeric values, one per line, discretized as the query's
//	        "levels" and "discretize" clauses direct (default 5
//	        equal-width levels); -detrend and -paa tune the
//	        "discretize sax" pipeline
//	events  "RFC3339-timestamp symbol" lines, binned at -bin
//
// Output lists the detected period values, the symbol periodicities, and the
// periodic patterns with their supports; -json emits the full result as
// JSON.
//
// The mining parameters are one pattern query: -query, else
// $PERIODICA_QUERY, else "conf >= 0.8". "opminer query check <q>" compiles
// a query and prints its canonical form, typed plan, and spec JSON without
// mining.
//
// Usage:
//
//	opgen -kind walmart | opminer -query 'conf >= 0.5' -top 20
//	opgen -kind walmart | opminer -query 'conf >= 0.5 and period in 2..64'
//	opminer -in readings.txt -format values -query 'conf >= 0.6 and levels 5'
//	opminer -in readings.txt -format values -query 'conf >= 0.6 and discretize sax' -paa 4
//	opminer -in series.txt -query 'conf >= 0.8 and maximal only' -json
//	opminer query check 'conf >= 0.8 and symbol in {a, b} and limit 10 by conf'
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"periodica"
	"periodica/internal/query"
	"periodica/internal/series"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "query" {
		queryCommand(os.Args[2:])
		return
	}
	var (
		in         = flag.String("in", "", "input file (default stdin)")
		format     = flag.String("format", "text", "input format: text, binary, values, events")
		detrend    = flag.Int("detrend", 0, "values format under 'discretize sax': moving-average detrend window (0 = off)")
		paa        = flag.Int("paa", 0, "values format under 'discretize sax': piecewise-aggregate frame (0 = off)")
		bin        = flag.Duration("bin", time.Minute, "events format: grid resolution")
		idle       = flag.String("idle", "idle", "events format: symbol for empty bins")
		jsonOut    = flag.Bool("json", false, "emit the result as JSON")
		top        = flag.Int("top", 25, "rows printed per section (0 = all)")
		candidates = flag.Bool("candidates-only", false, "run only the O(σ n log n) detection phase and list candidate periods")
		querySrc   = flag.String("query", "", "pattern query, e.g. 'conf >= 0.8 and period in 2..64' (default $PERIODICA_QUERY, else '"+defaultQuery+"')")
	)
	flag.Parse()

	src := *querySrc
	if src == "" {
		src = os.Getenv("PERIODICA_QUERY")
	}
	if src == "" {
		src = defaultQuery
	}
	q, err := periodica.CompileQuery(src)
	if err != nil {
		fatal(err)
	}
	if (*detrend != 0 || *paa != 0) && q.Discretization() != query.DiscretizeSAX {
		fatal(fmt.Errorf("-detrend and -paa apply only under the query clause 'discretize sax'"))
	}

	s, err := readSeries(*in, *format, prepConfig{
		detrend: *detrend, paa: *paa, bin: *bin, idle: *idle, query: q,
	})
	if err != nil {
		fatal(err)
	}
	if !*jsonOut {
		fmt.Printf("series: n=%d symbols, alphabet %v\n", s.Len(), s.Alphabet())
	}

	threshold := q.Options().Threshold
	if *candidates {
		periods, err := periodica.CandidatePeriodsQueryContext(context.Background(), s, q)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			emitJSON(map[string]any{"threshold": threshold, "candidatePeriods": periods})
			return
		}
		fmt.Printf("candidate periods (ψ=%.2f): %d\n", threshold, len(periods))
		printPeriods(periods, *top)
		return
	}

	res, err := periodica.MineQueryContext(context.Background(), s, q)
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		emitJSON(res)
		return
	}

	fmt.Printf("\ndetected periods (ψ=%.2f): %d\n", threshold, len(res.Periods))
	printPeriods(res.Periods, *top)

	fmt.Printf("\nsymbol periodicities: %d\n", len(res.Periodicities))
	sort.SliceStable(res.Periodicities, func(i, j int) bool {
		return res.Periodicities[i].Confidence > res.Periodicities[j].Confidence
	})
	for i, sp := range res.Periodicities {
		if *top > 0 && i >= *top {
			fmt.Printf("  … %d more\n", len(res.Periodicities)-i)
			break
		}
		fmt.Printf("  symbol %-4s period %-6d position %-6d confidence %.3f (%d matches)\n",
			sp.Symbol, sp.Period, sp.Position, sp.Confidence, sp.Matches)
	}

	fmt.Printf("\nmulti-symbol patterns: %d", len(res.Patterns))
	if res.Truncated {
		fmt.Print(" (truncated)")
	}
	fmt.Println()
	for i, pt := range res.Patterns {
		if *top > 0 && i >= *top {
			fmt.Printf("  … %d more\n", len(res.Patterns)-i)
			break
		}
		fmt.Printf("  p=%-5d %-40s support %.1f%%\n", pt.Period, pt.Text, pt.Support*100)
	}
}

// defaultQuery is the query mined when neither -query nor $PERIODICA_QUERY
// states one.
const defaultQuery = "conf >= 0.8"

type prepConfig struct {
	detrend int // values format under "discretize sax"
	paa     int // values format under "discretize sax"
	bin     time.Duration
	idle    string
	query   *periodica.Query // its levels/discretize clauses drive the values format
}

// queryCommand implements "opminer query check <query>": compile the query
// and print its canonical form, typed plan, and spec JSON — a dry run for
// what any entry point (CLI, HTTP, distributed) would execute.
func queryCommand(args []string) {
	if len(args) < 1 || args[0] != "check" {
		fatal(fmt.Errorf("usage: opminer query check <query>"))
	}
	src := strings.TrimSpace(strings.Join(args[1:], " "))
	if src == "" {
		fatal(fmt.Errorf("usage: opminer query check <query>"))
	}
	q, err := periodica.CompileQuery(src)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("canonical: %s\n", q)
	opt := q.Options()
	fmt.Printf("plan: threshold ψ=%v, periods [%s, %s], engine %s\n",
		opt.Threshold, orDefault(opt.MinPeriod, "1"), orDefault(opt.MaxPeriod, "n/2"), opt.Engine)
	if syms := q.Symbols(); len(syms) > 0 {
		fmt.Printf("      symbols %v\n", syms)
	}
	if n, by := q.Limit(); n > 0 {
		fmt.Printf("      limit %d by %s\n", n, by)
	}
	spec, err := json.MarshalIndent(q, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Printf("spec: %s\n", spec)
}

// orDefault renders a bound, or its documented default when unset.
func orDefault(v int, def string) string {
	if v == 0 {
		return def
	}
	return fmt.Sprint(v)
}

func readSeries(path, format string, cfg prepConfig) (*periodica.Series, error) {
	var r io.Reader = os.Stdin
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer func() { _ = f.Close() }() // read-only; nothing to lose on close
		r = f
	}
	switch format {
	case "text":
		inner, err := series.ReadText(r)
		if err != nil {
			return nil, err
		}
		return periodica.NewSeriesFromString(inner.String())
	case "binary":
		inner, err := series.ReadBinary(r)
		if err != nil {
			return nil, err
		}
		return periodica.NewSeriesFromString(inner.String())
	case "values":
		values, err := series.ReadValues(r)
		if err != nil {
			return nil, err
		}
		if cfg.query.Discretization() == query.DiscretizeSAX {
			return periodica.DiscretizeSAX(values, periodica.SAXOptions{
				Levels: cfg.query.Levels(), Frame: cfg.paa, DetrendWindow: cfg.detrend,
			})
		}
		return cfg.query.DiscretizeValues(values)
	case "events":
		events, err := readEvents(r)
		if err != nil {
			return nil, err
		}
		return periodica.GridEvents(events, cfg.bin, cfg.idle)
	}
	return nil, fmt.Errorf("unknown format %q (want text, binary, values)", format)
}

// readEvents parses "RFC3339-timestamp symbol" lines.
func readEvents(r io.Reader) ([]periodica.Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []periodica.Event
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("events line %d: want \"<RFC3339 time> <symbol>\", got %q", line, text)
		}
		ts, err := time.Parse(time.RFC3339, fields[0])
		if err != nil {
			return nil, fmt.Errorf("events line %d: %v", line, err)
		}
		out = append(out, periodica.Event{Time: ts, Symbol: fields[1]})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

func printPeriods(periods []int, top int) {
	limit := len(periods)
	if top > 0 && top < limit {
		limit = top
	}
	var parts []string
	for _, p := range periods[:limit] {
		parts = append(parts, fmt.Sprint(p))
	}
	line := strings.Join(parts, ", ")
	if limit < len(periods) {
		line += ", …"
	}
	fmt.Printf("  %s\n", line)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "opminer:", err)
	os.Exit(1)
}
