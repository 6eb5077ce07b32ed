package periodica_test

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"periodica"
)

func TestCounterMergePublicAPI(t *testing.T) {
	newCounter := func(maxPeriod int, symbols ...string) *periodica.Counter {
		c, err := periodica.NewCounter(maxPeriod, symbols...)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b, whole := newCounter(8, "x", "y"), newCounter(8, "x", "y"), newCounter(8, "x", "y")
	stream := strings.Repeat("xyxyxxyy", 8)
	half := len(stream) / 2
	for i, r := range stream {
		target := a
		if i >= half {
			target = b
		}
		if err := target.Append(string(r)); err != nil {
			t.Fatal(err)
		}
		if err := whole.Append(string(r)); err != nil {
			t.Fatal(err)
		}
	}
	// Counters built separately over the same symbols merge into the
	// counter of the whole stream.
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Len() != whole.Len() {
		t.Fatalf("merged Len = %d, want %d", a.Len(), whole.Len())
	}
	if b.Len() != len(stream)-half {
		t.Fatalf("Merge changed its argument: Len = %d, want %d", b.Len(), len(stream)-half)
	}
	q := mustCompile(t, "conf >= 0.9")
	wantPers, err := whole.Periodicities(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantPers) == 0 {
		t.Fatal("no periodicities in periodic stream")
	}
	if gotPers, err := a.Periodicities(q); err != nil || !reflect.DeepEqual(gotPers, wantPers) {
		t.Fatalf("merged Periodicities = %v, %v; want the whole stream's %v", gotPers, err, wantPers)
	}
	// Another symbol order or period bound is refused as invalid input,
	// and leaves the counter as it was.
	for name, next := range map[string]*periodica.Counter{"symbol order": newCounter(8, "y", "x"), "period bound": newCounter(4, "x", "y")} {
		if err := a.Merge(next); !errors.Is(err, periodica.ErrInvalidInput) {
			t.Errorf("merge across a different %s: error %v does not match ErrInvalidInput", name, err)
		}
	}
	if gotPers, err := a.Periodicities(q); err != nil || !reflect.DeepEqual(gotPers, wantPers) {
		t.Fatalf("after refused merges Periodicities = %v, %v; want %v", gotPers, err, wantPers)
	}
}

func TestCounterValidatesPublic(t *testing.T) {
	if _, err := periodica.NewCounter(0, "a"); !errors.Is(err, periodica.ErrInvalidInput) {
		t.Fatalf("maxPeriod 0: error %v does not match ErrInvalidInput", err)
	}
	if _, err := periodica.NewCounter(5, "a", "a"); err == nil {
		t.Fatal("duplicate symbols: want error")
	}
	c, err := periodica.NewCounter(5, "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Append("z"); !errors.Is(err, periodica.ErrInvalidInput) {
		t.Fatalf("unknown symbol: error %v does not match ErrInvalidInput", err)
	}
	for _, psi := range []float64{0, -0.5, 1.5} {
		q := periodica.QueryFromOptions(periodica.Options{Threshold: psi})
		if _, err := c.Periodicities(q); !errors.Is(err, periodica.ErrInvalidInput) {
			t.Fatalf("ψ=%v: error %v does not match ErrInvalidInput", psi, err)
		}
	}
}

// TestOnlineSourcesRefuseWideAlphabets: the count tables hold symbols as
// uint16, so an alphabet past 2^16 symbols would alias one symbol onto
// another and answer wrongly. Counter and Monitor refuse it, as NewSeries
// does, and accept the widest alphabet that fits, answering for its last
// symbol.
func TestOnlineSourcesRefuseWideAlphabets(t *testing.T) {
	symbols := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("s%d", i)
		}
		return out
	}
	const widest = 1 << 16
	type source interface {
		Append(string) error
		Periodicities(*periodica.Query) ([]periodica.Periodicity, error)
	}
	build := map[string]func(alpha []string) (source, error){
		"Counter": func(alpha []string) (source, error) { return periodica.NewCounter(4, alpha...) },
		"Monitor": func(alpha []string) (source, error) { return periodica.NewMonitor(4, 40, alpha...) },
	}
	for name, newSource := range build {
		if _, err := newSource(symbols(widest + 1)); !errors.Is(err, periodica.ErrInvalidInput) {
			t.Errorf("%s over %d symbols: error %v does not match ErrInvalidInput", name, widest+1, err)
		}
		alpha := symbols(widest)
		src, err := newSource(alpha)
		if err != nil {
			t.Fatalf("%s over %d symbols: %v", name, widest, err)
		}
		last := alpha[widest-1]
		for i := 0; i < 20; i++ {
			sym := last
			if i%2 == 1 {
				sym = alpha[0]
			}
			if err := src.Append(sym); err != nil {
				t.Fatal(err)
			}
		}
		pers, err := src.Periodicities(mustCompile(t, "conf >= 1 and period in 1..2"))
		if err != nil {
			t.Fatal(err)
		}
		want := []string{last + " 2/0", alpha[0] + " 2/1"}
		var got []string
		for _, sp := range pers {
			got = append(got, fmt.Sprintf("%s %d/%d", sp.Symbol, sp.Period, sp.Position))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s over %d symbols answers %v, want %v", name, widest, got, want)
		}
	}
}

func TestSeriesFileRoundTripAndExternalDetection(t *testing.T) {
	s, err := periodica.NewSeriesFromString(strings.Repeat("abcd", 200))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "series.bin")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := periodica.ReadSeriesFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != s.String() {
		t.Fatal("file round trip changed the series")
	}

	onDisk, err := periodica.CandidatePeriodsFile(path, mustCompile(t, "conf >= 1"))
	if err != nil {
		t.Fatal(err)
	}
	inMem, err := candidatePeriods(s, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, inMem) {
		t.Fatalf("on-disk %v != in-memory %v", onDisk, inMem)
	}
	if _, err := periodica.CandidatePeriodsFile(path, periodica.QueryFromOptions(periodica.Options{})); !errors.Is(err, periodica.ErrInvalidInput) {
		t.Fatalf("ψ=0: error %v does not match ErrInvalidInput", err)
	}
}

// TestCandidatePeriodsFileMatchesInMemory: the out-of-core detector answers
// every (series, query) pair exactly as the in-memory one does — the same
// periods, or an error on both paths that matches ErrInvalidInput on both or
// on neither — and both validate the query's period range as a mine of the
// same series does: an ErrInvalidInput from one is one from all three.
func TestCandidatePeriodsFileMatchesInMemory(t *testing.T) {
	const series22 = "abcabcabcabcabcabcabca"
	cases := []struct{ text, query string }{
		{"a", "conf >= 0.5"},
		{"ab", "conf >= 0.5"},
		{series22, "conf >= 0.5 and period <= 99"},
		{series22, "conf >= 0.5 and period >= 15"},
		{series22, "conf >= 0.5 and period = 21"},
		{series22, "conf >= 0.5 and period in 12..20"},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("n=%d/%s", len(tc.text), tc.query), func(t *testing.T) {
			s, err := periodica.NewSeriesFromString(tc.text)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "series.bin")
			if err := s.WriteFile(path); err != nil {
				t.Fatal(err)
			}
			q := mustCompile(t, tc.query)
			inMem, memErr := periodica.CandidatePeriodsQueryContext(context.Background(), s, q)
			onDisk, fileErr := periodica.CandidatePeriodsFile(path, q)
			_, mineErr := periodica.MineQueryContext(context.Background(), s, q)
			if (memErr == nil) != (fileErr == nil) ||
				errors.Is(memErr, periodica.ErrInvalidInput) != errors.Is(fileErr, periodica.ErrInvalidInput) ||
				errors.Is(memErr, periodica.ErrInvalidInput) != errors.Is(mineErr, periodica.ErrInvalidInput) {
				t.Fatalf("errors differ: in-memory %v, on-disk %v, mine %v", memErr, fileErr, mineErr)
			}
			if !slices.Equal(onDisk, inMem) {
				t.Fatalf("on-disk %v != in-memory %v", onDisk, inMem)
			}
		})
	}
}

// TestSeriesFileRefusesWideAlphabet: the binary format holds σ ≤ 26, the
// bound both readers keep, so WriteFile refuses a 30-symbol series rather
// than store a file no reader accepts, and leaves no file behind.
func TestSeriesFileRefusesWideAlphabet(t *testing.T) {
	symbols := make([]string, 60)
	for i := range symbols {
		symbols[i] = fmt.Sprintf("s%02d", i%30)
	}
	s, err := periodica.NewSeries(symbols)
	if err != nil {
		t.Fatal(err)
	}
	wide := filepath.Join(t.TempDir(), "wide.bin")
	if err := s.WriteFile(wide); err == nil {
		t.Fatal("σ=30: WriteFile succeeded; want a refusal")
	}
	if _, err := os.Stat(wide); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("σ=30: the refused write left a file (%v)", err)
	}
}

// TestSeriesFileRefusesSigmaHeader: a header claiming σ = 3000 is refused
// by both readers at once, and nothing is created beside the file or in
// the temp directory.
func TestSeriesFileRefusesSigmaHeader(t *testing.T) {
	dir, tmp := t.TempDir(), t.TempDir()
	t.Setenv("TMPDIR", tmp) // os.TempDir() is now private to this test
	bad := filepath.Join(dir, "sigma3000.bin")
	if err := os.WriteFile(bad, []byte("PSER1 3000 8\n\x00\x01\x02\x03\x04\x05\x06\x07"), 0o644); err != nil {
		t.Fatal(err)
	}
	q := mustCompile(t, "conf >= 0.5")
	start := time.Now()
	if _, err := periodica.CandidatePeriodsFile(bad, q); err == nil {
		t.Fatal("σ=3000 header: CandidatePeriodsFile succeeded; want a refusal")
	}
	if _, err := periodica.ReadSeriesFile(bad); err == nil {
		t.Fatal("σ=3000 header: ReadSeriesFile succeeded; want a refusal")
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("σ=3000 header: refusing took %v", el)
	}
	for _, d := range []string{dir, tmp} {
		entries, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Name() != "sigma3000.bin" {
				t.Errorf("σ=3000 header: %s gained %s", d, e.Name())
			}
		}
	}
}

// TestSeriesFileHeaderClaimAllocatesLittle: a 20-byte file whose header
// claims n = 2^28 is refused by both readers, and neither sizes a buffer
// from the claim: each allocates under 1 MiB before returning its error.
func TestSeriesFileHeaderClaimAllocatesLittle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "claim.bin")
	if err := os.WriteFile(path, []byte("PSER1 3 268435456\n\x00\x01"), 0o644); err != nil {
		t.Fatal(err)
	}
	q := mustCompile(t, "conf >= 0.5")
	for _, tc := range []struct {
		name string
		read func() error
	}{
		{"ReadSeriesFile", func() error { _, err := periodica.ReadSeriesFile(path); return err }},
		{"CandidatePeriodsFile", func() error { _, err := periodica.CandidatePeriodsFile(path, q); return err }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.read()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: read a file holding 2 of 2^28 claimed symbols", tc.name)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("%s: allocated %d bytes before refusing the file", tc.name, d)
		}
	}
}

// TestOnlineSourcesAllocateWithTheStream: a Counter or Monitor allocates
// little before its first Append, whatever the number of symbols it is
// given or the length of its window. A symbol's counts are made on its
// first match, and a Monitor's window fills as the stream arrives.
func TestOnlineSourcesAllocateWithTheStream(t *testing.T) {
	symbols := make([]string, 1<<16)
	for i := range symbols {
		symbols[i] = fmt.Sprintf("s%d", i)
	}
	for _, tc := range []struct {
		name  string
		limit uint64
		build func() (any, error)
	}{
		{"NewCounter(64, 65536 symbols)", 16 << 20, func() (any, error) { return periodica.NewCounter(64, symbols...) }},
		{"NewMonitor(64, 4096, 65536 symbols)", 16 << 20, func() (any, error) { return periodica.NewMonitor(64, 4096, symbols...) }},
		{"NewMonitor(64, 1<<26, 5 symbols)", 1 << 20, func() (any, error) { return periodica.NewMonitor(64, 1<<26, "a", "b", "c", "d", "e") }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		src, err := tc.build()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > tc.limit {
			t.Errorf("%s: allocated %d bytes before the first Append, want at most %d", tc.name, d, tc.limit)
		}
		runtime.KeepAlive(src)
	}
}

func TestCounterPublic(t *testing.T) {
	c, err := periodica.NewCounter(8, "on", "off")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		sym := "on"
		if i%4 != 0 {
			sym = "off"
		}
		if err := c.Append(sym); err != nil {
			t.Fatal(err)
		}
	}
	memAt4000 := c.MemoryBytes()
	for i := 0; i < 40000; i++ {
		_ = c.Append("off")
	}
	if c.MemoryBytes() != memAt4000 {
		t.Fatal("counter memory grew with stream length")
	}
	if c.Len() != 44000 {
		t.Fatalf("Len = %d", c.Len())
	}
	pers, err := c.Periodicities(mustCompile(t, "conf >= 0.05"))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sp := range pers {
		if sp.Symbol == "on" && sp.Period == 4 && sp.Position == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("period-4 on-beat missing from counter answers")
	}
	if err := c.Append("boom"); !errors.Is(err, periodica.ErrInvalidInput) {
		t.Fatalf("unknown symbol: error %v does not match ErrInvalidInput", err)
	}
	if _, err := periodica.NewCounter(0, "a"); !errors.Is(err, periodica.ErrInvalidInput) {
		t.Fatalf("maxPeriod 0: error %v does not match ErrInvalidInput", err)
	}
	for _, psi := range []float64{0, 1.5} {
		q := periodica.QueryFromOptions(periodica.Options{Threshold: psi})
		if _, err := c.Periodicities(q); !errors.Is(err, periodica.ErrInvalidInput) {
			t.Fatalf("ψ=%v: error %v does not match ErrInvalidInput", psi, err)
		}
	}
}

func TestDescribePublic(t *testing.T) {
	s, err := periodica.NewSeriesFromString("ababab")
	if err != nil {
		t.Fatal(err)
	}
	sp := periodica.Periodicity{Symbol: "b", Period: 24, Position: 7, Matches: 4, Pairs: 5, Confidence: 0.8}
	got := s.Describe(sp, []string{"zero", "under 200 transactions"}, "hour", "day")
	want := "under 200 transactions occurs in hour 7 of the day for 80% of the cycles"
	if got != want {
		t.Fatalf("Describe = %q, want %q", got, want)
	}
	if got := s.Describe(periodica.Periodicity{Symbol: "z"}, nil, "", ""); got != `unknown symbol "z"` {
		t.Fatalf("unknown symbol: %q", got)
	}
}

func TestMinPairsPublicPassthrough(t *testing.T) {
	// abcab: with MinPairs high enough, the thin large-period periodicities
	// disappear while the well-supported small period stays.
	s, err := periodica.NewSeriesFromString(strings.Repeat("abcab", 20))
	if err != nil {
		t.Fatal(err)
	}
	loose, err := mine(s, periodica.Options{Threshold: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := mine(s, periodica.Options{Threshold: 0.9, MinPairs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(strict.Periodicities) >= len(loose.Periodicities) {
		t.Fatalf("MinPairs removed nothing: %d vs %d", len(strict.Periodicities), len(loose.Periodicities))
	}
	for _, sp := range strict.Periodicities {
		if sp.Pairs < 10 {
			t.Fatalf("low-mass periodicity survived: %+v", sp)
		}
	}
	has5 := false
	for _, p := range strict.Periods {
		if p == 5 {
			has5 = true
		}
	}
	if !has5 {
		t.Fatal("the embedded period 5 was lost")
	}
}

func TestMineContextPublic(t *testing.T) {
	s, err := periodica.NewSeriesFromString(strings.Repeat("ab", 100))
	if err != nil {
		t.Fatal(err)
	}
	res, err := periodica.MineQueryContext(context.Background(), s, periodica.QueryFromOptions(periodica.Options{Threshold: 0.9}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Periods) == 0 || res.Periods[0] != 2 {
		t.Fatalf("Periods = %v", res.Periods)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := periodica.MineQueryContext(ctx, s, periodica.QueryFromOptions(periodica.Options{Threshold: 0.9})); err == nil {
		t.Fatal("cancelled context: want error")
	}
}

func TestCandidatePeriodsContextPublic(t *testing.T) {
	cases := []struct {
		symbols, query string
	}{
		{strings.Repeat("abcd", 50), "conf >= 1"},
		// The candidates honour the query's minimum period: a mine under the
		// same query sweeps only 10..30, so no candidate may fall below it.
		{strings.Repeat("abcabbabcb", 40), "conf >= 0.5 and period in 10..30"},
	}
	for _, tc := range cases {
		s, err := periodica.NewSeriesFromString(tc.symbols)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "series.ser")
		if err := s.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		q := mustCompile(t, tc.query)
		want, err := periodica.CandidatePeriodsFile(path, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := periodica.CandidatePeriodsQueryContext(context.Background(), s, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: CandidatePeriodsQueryContext = %v, CandidatePeriodsFile = %v", tc.query, got, want)
		}
		opt := q.Options()
		for _, p := range got {
			if p < opt.MinPeriod || (opt.MaxPeriod > 0 && p > opt.MaxPeriod) {
				t.Errorf("%q: candidate period %d outside the query's range", tc.query, p)
			}
		}
		res, err := periodica.MineQueryContext(context.Background(), s, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Periods) == 0 {
			t.Fatalf("%q: the mine found no periods", tc.query)
		}
		for _, p := range res.Periods {
			if !slices.Contains(got, p) {
				t.Errorf("%q: mined period %d is not a candidate %v", tc.query, p, got)
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := periodica.CandidatePeriodsQueryContext(ctx, s, q); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled context: err = %v, want context.Canceled", err)
		}
	}
}

func TestErrInvalidInputPublic(t *testing.T) {
	s, err := periodica.NewSeriesFromString(strings.Repeat("ab", 20))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mine(s, periodica.Options{Threshold: 0}); !errors.Is(err, periodica.ErrInvalidInput) {
		t.Fatalf("ψ=0: err = %v, want ErrInvalidInput", err)
	}
	if _, err := candidatePeriods(s, 0.5, 1000); !errors.Is(err, periodica.ErrInvalidInput) {
		t.Fatalf("bad maxPeriod: err = %v, want ErrInvalidInput", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := periodica.MineQueryContext(ctx, s, periodica.QueryFromOptions(periodica.Options{Threshold: 0.5})); errors.Is(err, periodica.ErrInvalidInput) {
		t.Fatal("cancellation must not classify as invalid input")
	}
}

func TestGridEventsPublic(t *testing.T) {
	start := time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)
	var events []periodica.Event
	for m := 0; m < 600; m += 10 {
		events = append(events, periodica.Event{Time: start.Add(time.Duration(m) * time.Minute), Symbol: "p"})
	}
	s, err := periodica.GridEvents(events, time.Minute, "i")
	if err != nil {
		t.Fatal(err)
	}
	if conf := periodica.PeriodConfidence(s, 10); conf < 0.95 {
		t.Fatalf("period 10 confidence %v from gridded events", conf)
	}
	if _, err := periodica.GridEvents(nil, time.Minute, "i"); err == nil {
		t.Fatal("no events: want error")
	}
}

func TestDiscretizeSAXPublic(t *testing.T) {
	values := make([]float64, 240)
	for i := range values {
		values[i] = 50 + 20*float64(i%12) // strong period-12 sawtooth
	}
	s, err := periodica.DiscretizeSAX(values, periodica.SAXOptions{Levels: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 240 || len(s.Alphabet()) != 4 {
		t.Fatalf("len=%d σ=%d", s.Len(), len(s.Alphabet()))
	}
	if conf := periodica.PeriodConfidence(s, 12); conf < 0.9 {
		t.Fatalf("period 12 confidence %v after SAX", conf)
	}
	if _, err := periodica.DiscretizeSAX(nil, periodica.SAXOptions{}); err == nil {
		t.Fatal("empty values: want error")
	}
}

func TestSignificantPublic(t *testing.T) {
	// Strong period-8 structure for symbol a over random other symbols.
	data := make([]byte, 1600)
	rng := []byte("bcd")
	for i := range data {
		data[i] = rng[i%3]
		if i%8 == 0 {
			data[i] = 'a'
		}
	}
	s, err := periodica.NewSeriesFromString(string(data))
	if err != nil {
		t.Fatal(err)
	}
	res, err := mine(s, periodica.Options{Threshold: 0.9, MaxPatternPeriod: -1})
	if err != nil {
		t.Fatal(err)
	}
	kept, err := periodica.Significant(s, res, 0.01, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) == 0 || len(kept) >= len(res.Periodicities) {
		t.Fatalf("significance kept %d of %d", len(kept), len(res.Periodicities))
	}
	found := false
	for _, sp := range kept {
		if sp.Symbol == "a" && sp.Period == 8 && sp.Position == 0 {
			found = true
			if sp.PValue > 1e-10 {
				t.Fatalf("embedded p-value %v", sp.PValue)
			}
		}
		if sp.Pairs < 2 {
			t.Fatalf("low-mass fluke survived: %+v", sp)
		}
	}
	if !found {
		t.Fatal("embedded periodicity not kept")
	}
	if _, err := periodica.Significant(s, res, 0, false); err == nil {
		t.Fatal("alpha 0: want error")
	}
}

func TestMonitorSlidingWindow(t *testing.T) {
	m, err := periodica.NewMonitor(6, 30, "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	feed := func(pattern string, reps int) {
		for i := 0; i < reps; i++ {
			for _, r := range pattern {
				if err := m.Append(string(r)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	feed("abc", 30)
	q := mustCompile(t, "conf >= 0.9")
	pers, err := m.Periodicities(q)
	if err != nil {
		t.Fatal(err)
	}
	has3 := false
	for _, sp := range pers {
		if sp.Period == 3 {
			has3 = true
		}
	}
	if !has3 {
		t.Fatal("period 3 not visible in window")
	}
	// Regime change: after the window slides fully, the old rhythm is gone.
	feed("ab", 60)
	pers, err = m.Periodicities(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range pers {
		if sp.Period == 3 && sp.Symbol == "c" {
			t.Fatal("stale period-3 c periodicity survived the window")
		}
	}
	if m.Len() != 30 {
		t.Fatalf("window Len = %d, want 30", m.Len())
	}
}

func TestMonitorValidates(t *testing.T) {
	for _, bounds := range [][2]int{{5, 5}, {10, 5}, {0, 10}} {
		if _, err := periodica.NewMonitor(bounds[0], bounds[1], "a"); !errors.Is(err, periodica.ErrInvalidInput) {
			t.Fatalf("NewMonitor(%d, %d): error %v does not match ErrInvalidInput", bounds[0], bounds[1], err)
		}
	}
	m, _ := periodica.NewMonitor(5, 20, "a")
	if err := m.Append("z"); !errors.Is(err, periodica.ErrInvalidInput) {
		t.Fatalf("unknown symbol: error %v does not match ErrInvalidInput", err)
	}
	// Polled before its first symbols, a monitor answers nothing, not an error.
	if pers, err := m.Periodicities(mustCompile(t, "conf >= 0.5 and period in 2..4")); pers != nil || err != nil {
		t.Fatalf("empty monitor: Periodicities = %v, %v; want nil, nil", pers, err)
	}
	for _, psi := range []float64{0, 1.5} {
		q := periodica.QueryFromOptions(periodica.Options{Threshold: psi})
		if _, err := m.Periodicities(q); !errors.Is(err, periodica.ErrInvalidInput) {
			t.Fatalf("ψ=%v: error %v does not match ErrInvalidInput", psi, err)
		}
	}
}

func TestMineParallelPublicMatchesSerial(t *testing.T) {
	s, err := periodica.NewSeriesFromString(strings.Repeat("abcda", 100))
	if err != nil {
		t.Fatal(err)
	}
	want, err := mine(s, periodica.Options{Threshold: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	got, err := periodica.MineQueryContext(context.Background(), s, mustCompile(t, "conf >= 0.8 and workers 4"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a mine at four workers differs from the serial mine")
	}
}

func TestMineDatabasePublic(t *testing.T) {
	var db []*periodica.Series
	for i := 0; i < 5; i++ {
		s, err := periodica.NewSeriesFromString(strings.Repeat("abcab", 50))
		if err != nil {
			t.Fatal(err)
		}
		db = append(db, s)
	}
	pats, err := periodica.MineDatabase(db, mustCompile(t, "conf >= 0.8 and period <= 10 and pattern period <= 10"), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if len(pats) == 0 {
		t.Fatal("no shared patterns")
	}
	found := false
	for _, dp := range pats {
		if dp.Text == "abcab" && dp.Sequences == 5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("abcab not shared by all 5 sequences: %+v", pats)
	}
}

func TestMineDatabaseMixedAlphabets(t *testing.T) {
	a, _ := periodica.NewSeriesFromString("ababab")
	z, _ := periodica.NewSeriesFromString("zxzxzx")
	if _, err := periodica.MineDatabase([]*periodica.Series{a, z}, mustCompile(t, "conf >= 0.5"), 0.5); err == nil {
		t.Fatal("incompatible alphabets: want error")
	}
	if _, err := periodica.MineDatabase(nil, mustCompile(t, "conf >= 0.5"), 0.5); err == nil {
		t.Fatal("empty database: want error")
	}
}

func TestFilterMaximalPublic(t *testing.T) {
	s, err := periodica.NewSeriesFromString(strings.Repeat("abc", 8))
	if err != nil {
		t.Fatal(err)
	}
	opt := periodica.Options{Threshold: 0.8, MinPeriod: 3, MaxPeriod: 3}
	full, err := mine(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.MaximalOnly = true
	maximal, err := mine(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(maximal.Patterns) != 1 || maximal.Patterns[0].Text != "abc" {
		t.Fatalf("maximal patterns = %+v, want [abc]", maximal.Patterns)
	}
	if len(full.Patterns) <= len(maximal.Patterns) {
		t.Fatal("filter removed nothing")
	}
}
