package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
)

// ledger is a file of committed runs: a baseline that later changes are
// compared against with -compare.
type ledger struct {
	Runs []*runRecord `json:"runs"`
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(l.Runs) == 0 {
		return nil, fmt.Errorf("%s holds no runs", path)
	}
	return &l, nil
}

// appendLedger adds rec to the ledger at path, creating the file if needed.
func appendLedger(path string, rec *runRecord) error {
	l, err := readLedger(path)
	if errors.Is(err, fs.ErrNotExist) {
		l, err = &ledger{}, nil
	}
	if err != nil {
		return err
	}
	l.Runs = append(l.Runs, rec)
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// bound is one end-to-end metric's regression rule from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) ([]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return def.EndToEnd, nil
}

// compare prints, for every (metric, workload) pair both ledgers hold, how
// the runs in b stand against the runs in a under the benchmark's bounds.
// error_ratio is held to an absolute bound of zero.
func compare(w io.Writer, boundsPath, aPath, bPath string) error {
	bounds, err := readBounds(boundsPath)
	if err != nil {
		return err
	}
	a, err := readLedger(aPath)
	if err != nil {
		return err
	}
	b, err := readLedger(bPath)
	if err != nil {
		return err
	}
	var names []string
	for name := range a.Runs[0].Workloads {
		if b.Runs[0].Workloads[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var out bytes.Buffer
	out.WriteString(fmt.Sprintf("%-18s %-16s %12s %12s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "change", "bound", "verdict"))
	for _, name := range names {
		for _, bd := range bounds {
			av, bv := ledgerValues(a, name, bd.Name), ledgerValues(b, name, bd.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			ma, mb := median(av), median(bv)
			out.WriteString(fmt.Sprintf("%-18s %-16s %12.4f %12.4f %+7.1f%% %5.0f%%  %s\n", name, bd.Name, ma, mb,
				100*(mb-ma)/ma, 100*bd.Bound, classify(av, bv, bd.Bound, bd.Better == "higher")))
		}
		av, bv := errorRatios(a, name), errorRatios(b, name)
		out.WriteString(fmt.Sprintf("%-18s %-16s %12.4f %12.4f %8s %6s  %s\n", name, "error_ratio", median(av), median(bv), "", "0", errorVerdict(bv)))
	}
	_, err = w.Write(out.Bytes())
	return err
}

func ledgerValues(l *ledger, workload, metric string) []float64 {
	var out []float64
	for _, r := range l.Runs {
		if wr := r.Workloads[workload]; wr != nil {
			if m, ok := wr.E2E[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

func errorRatios(l *ledger, workload string) []float64 {
	var out []float64
	for _, r := range l.Runs {
		if wr := r.Workloads[workload]; wr != nil {
			out = append(out, wr.ErrorRatio)
		}
	}
	return out
}

// errorVerdict holds error_ratio to its absolute bound of zero: one run of
// b with a wrong answer makes b worse, however many runs were clean.
func errorVerdict(b []float64) string {
	for _, x := range b {
		if x > 0 {
			return "worse"
		}
	}
	return "unchanged"
}

// classify is the benchmark's regression rule for one (metric, workload)
// pair, a the baseline's runs and b the change's:
//   - worse: b's median is worse than a's by more than the bound;
//   - unresolved: a's own run-to-run spread is wider than the bound, unless
//     every b run beats every a run;
//   - improved: b's median is better by more than both the bound and that
//     spread;
//   - unchanged otherwise.
func classify(a, b []float64, bound float64, higherBetter bool) string {
	ma, mb := median(a), median(b)
	gain := (ma - mb) / ma // share by which b is better
	if higherBetter {
		gain = -gain
	}
	beatsAll := true
	for _, x := range a {
		for _, y := range b {
			if (higherBetter && y <= x) || (!higherBetter && y >= x) {
				beatsAll = false
			}
		}
	}
	noise := spread(a)
	switch {
	case gain < -bound:
		return "worse"
	case noise > bound && !beatsAll:
		return "unresolved"
	case gain > bound && gain > noise:
		return "improved"
	}
	return "unchanged"
}
