// Command opstore manages an on-disk symbol store and answers periodicity
// queries over its history from the persisted per-segment summaries. What
// query and mine report is one -query in the pattern-query language; -from,
// -to and -top pick the segments and the rows printed.
//
// Usage:
//
//	opstore -dir ./events init -sigma 5 -max-period 128 -segment 4096
//	opgen -kind walmart | opstore -dir ./events append
//	opstore -dir ./events info
//	opstore -dir ./events query -query 'conf >= 0.9 and period <= 64' -from 0 -to 3 -top 20
//	opstore -dir ./events mine -query 'conf >= 0.8 and period <= 64' -top 20
//	opstore -dir ./events verify
//	opstore -dir ./events repair
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"unicode"

	"periodica/internal/alphabet"
	"periodica/internal/core"
	"periodica/internal/query"
	"periodica/internal/store"
)

func main() {
	dir := flag.String("dir", "", "store directory (required)")
	flag.Parse()
	if *dir == "" || flag.NArg() < 1 {
		fatal(fmt.Errorf("usage: opstore -dir <path> {init|append|info|query|mine|verify|repair} [flags]"))
	}
	var err error
	switch cmd := flag.Arg(0); cmd {
	case "init":
		err = runInit(*dir, flag.Args()[1:])
	case "append":
		err = runAppend(*dir, flag.Args()[1:])
	case "info":
		err = runInfo(*dir)
	case "query":
		err = runQuery(*dir, flag.Args()[1:])
	case "mine":
		err = runMine(*dir, flag.Args()[1:])
	case "verify":
		err = runVerify(*dir, os.Stdout)
	case "repair":
		err = runRepair(*dir, os.Stdout)
	default:
		err = fmt.Errorf("unknown command %q (want init, append, info, query, mine, verify, repair)", cmd)
	}
	if err != nil {
		fatal(err)
	}
}

func runInit(dir string, args []string) error {
	fs := flag.NewFlagSet("init", flag.ExitOnError)
	sigma := fs.Int("sigma", 5, "alphabet size (1..26, symbols a..)")
	maxPeriod := fs.Int("max-period", 128, "largest summarized period")
	segment := fs.Int("segment", 4096, "symbols per sealed segment")
	if err := fs.Parse(args); err != nil {
		return err
	}
	db, err := store.Open(dir, store.Options{Sigma: *sigma, MaxPeriod: *maxPeriod, SegmentSize: *segment})
	if err != nil {
		return err
	}
	fmt.Printf("store initialized at %s (σ=%d, maxPeriod=%d, segment=%d)\n", dir, *sigma, *maxPeriod, *segment)
	return db.Close()
}

func runAppend(dir string, args []string) error {
	fs := flag.NewFlagSet("append", flag.ExitOnError)
	in := fs.String("in", "", "input file of single-rune symbols (default stdin)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	db, err := store.OpenExisting(dir)
	if err != nil {
		return err
	}
	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }() // read-only; nothing to lose on close
		r = f
	}
	br := bufio.NewReader(r)
	appended := 0
	for {
		ch, _, err := br.ReadRune()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if unicode.IsSpace(ch) {
			continue
		}
		k, err := parseSymbol(ch, db.Sigma())
		if err != nil {
			return fmt.Errorf("input symbol %d: %w", appended+1, err)
		}
		if err := db.Append(k); err != nil {
			return err
		}
		appended++
	}
	if err := db.Close(); err != nil {
		return err
	}
	fmt.Printf("appended %d symbols; store now holds %d symbols in %d segments\n",
		appended, db.Len(), db.Segments())
	return nil
}

func runInfo(dir string) error {
	db, err := store.OpenExisting(dir)
	if err != nil {
		return err
	}
	fmt.Printf("store %s: %d symbols, %d sealed segments, σ=%d, maxPeriod=%d\n",
		dir, db.Len(), db.Segments(), db.Sigma(), db.MaxPeriod())
	return nil
}

func runQuery(dir string, args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	src := fs.String("query", "conf >= 0.8 and pairs >= 2", "periodicities to report, in the pattern-query language")
	from := fs.Int("from", 0, "first segment (inclusive)")
	to := fs.Int("to", -1, "last segment (exclusive; -1 = all)")
	top := fs.Int("top", 25, "rows printed (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opt, err := queryOptions(*src)
	if err != nil {
		return err
	}
	db, err := store.OpenExisting(dir)
	if err != nil {
		return err
	}
	if *to < 0 {
		*to = db.Segments()
	}
	pers, err := db.PeriodicitiesRange(*from, *to, opt)
	if err != nil {
		return err
	}
	sort.Slice(pers, func(i, j int) bool {
		if pers[i].Confidence != pers[j].Confidence { //opvet:ignore floatcmp exact tie-break in sort comparator
			return pers[i].Confidence > pers[j].Confidence
		}
		return pers[i].Period < pers[j].Period
	})
	for i, sp := range pers {
		if *top > 0 && i >= *top {
			fmt.Println("  …")
			break
		}
		fmt.Printf("  symbol %c  period %-6d position %-6d confidence %.3f (%d/%d)\n",
			'a'+sp.Symbol, sp.Period, sp.Position, sp.Confidence, sp.F2, sp.Pairs)
	}
	if len(pers) == 0 {
		fmt.Println("  no periodicities at this threshold")
	}
	return nil
}

func runMine(dir string, args []string) error {
	fs := flag.NewFlagSet("mine", flag.ExitOnError)
	src := fs.String("query", "conf >= 0.8", "what to mine, in the pattern-query language")
	from := fs.Int("from", 0, "first segment (inclusive)")
	to := fs.Int("to", -1, "last segment (exclusive; -1 = all, including active)")
	top := fs.Int("top", 20, "patterns printed (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opt, err := queryOptions(*src)
	if err != nil {
		return err
	}
	db, err := store.OpenExisting(dir)
	if err != nil {
		return err
	}
	if *to < 0 {
		*to = db.Segments()
	}
	res, err := db.Mine(*from, *to, opt)
	if err != nil {
		return err
	}
	fmt.Printf("segments [%d,%d): %d periods, %d periodicities, %d patterns\n",
		*from, *to, len(res.Periods), len(res.Periodicities), len(res.Patterns))
	alpha := alphabetLetters(db.Sigma())
	for i, pt := range res.Patterns {
		if *top > 0 && i >= *top {
			fmt.Printf("  … %d more\n", len(res.Patterns)-i)
			break
		}
		fmt.Printf("  p=%-5d %-40s support %.1f%%\n", pt.Period, pt.Render(alpha), pt.Support*100)
	}
	return nil
}

// queryOptions compiles a -query and lowers its mining clauses. The store
// answers with raw periodicities and patterns, so a query that asks for
// output shaping (a symbol constraint, a limit, maximal only) is refused
// rather than silently ignored; -top caps the rows printed.
func queryOptions(src string) (core.Options, error) {
	sp, err := query.Compile(src)
	if err != nil {
		return core.Options{}, fmt.Errorf("-query: %w", err)
	}
	if len(sp.Symbols) > 0 || sp.Limit > 0 || sp.MaximalOnly {
		return core.Options{}, fmt.Errorf("-query %q: symbol constraints, limits and maximal only are not supported by opstore", src)
	}
	return core.OptionsFromSpec(sp)
}

// parseSymbol maps one input rune onto the store's alphabet a..a+σ-1,
// rejecting anything else — including non-letter runes and letters past the
// configured alphabet — with an error naming the accepted range.
func parseSymbol(ch rune, sigma int) (int, error) {
	last := rune('a' + sigma - 1)
	if ch < 'a' || ch > 'z' {
		return 0, fmt.Errorf("symbol %q is not a lowercase letter; the store accepts a..%c (σ=%d)", ch, last, sigma)
	}
	k := int(ch - 'a')
	if k >= sigma {
		return 0, fmt.Errorf("symbol %q is outside the store alphabet a..%c (σ=%d)", ch, last, sigma)
	}
	return k, nil
}

func runVerify(dir string, w io.Writer) error {
	rep, err := store.Verify(dir)
	if err != nil {
		return err
	}
	printReport(w, rep)
	if !rep.Clean() {
		return fmt.Errorf("%d problem(s) found; run `opstore -dir %s repair` to recover", len(rep.Problems), dir)
	}
	_, _ = fmt.Fprintln(w, "store is clean") // CLI output; write errors are not actionable
	return nil
}

func runRepair(dir string, w io.Writer) error {
	rep, err := store.Repair(dir)
	if err != nil {
		return err
	}
	for _, a := range rep.Actions {
		_, _ = fmt.Fprintln(w, "repaired:", a) // CLI output; write errors are not actionable
	}
	if len(rep.Actions) == 0 {
		_, _ = fmt.Fprintln(w, "nothing to repair") // CLI output; write errors are not actionable
	}
	printReport(w, rep)
	if !rep.Clean() {
		return fmt.Errorf("%d problem(s) remain after repair", len(rep.Problems))
	}
	return nil
}

func printReport(w io.Writer, rep *store.Report) {
	_, _ = fmt.Fprintf(w, "store %s: %d healthy segment(s), %d symbol(s)\n", rep.Dir, rep.Segments, rep.Symbols) // CLI output; write errors are not actionable
	for _, p := range rep.Problems {
		_, _ = fmt.Fprintln(w, "problem:", p.String()) // CLI output; write errors are not actionable
	}
}

func alphabetLetters(sigma int) *alphabet.Alphabet { return alphabet.Letters(sigma) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "opstore:", err)
	os.Exit(1)
}
