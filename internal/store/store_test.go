package store

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"periodica/internal/alphabet"
	"periodica/internal/core"
	"periodica/internal/series"
)

func sortPers(pers []core.SymbolPeriodicity) []core.SymbolPeriodicity {
	out := append([]core.SymbolPeriodicity(nil), pers...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Period != b.Period {
			return a.Period < b.Period
		}
		if a.Position != b.Position {
			return a.Position < b.Position
		}
		return a.Symbol < b.Symbol
	})
	return out
}

// periodicities answers over db's whole history at ψ.
func periodicities(db *DB, psi float64) ([]core.SymbolPeriodicity, error) {
	return db.PeriodicitiesRange(0, db.Segments(), core.Options{Threshold: psi})
}

// referencePeriodicities mines the same stream with the batch miner.
func referencePeriodicities(t *testing.T, stream []int, sigma, maxPeriod int, psi float64) []core.SymbolPeriodicity {
	t.Helper()
	idx := make([]uint16, len(stream))
	for i, k := range stream {
		idx[i] = uint16(k)
	}
	s := series.FromIndices(alphabet.Letters(sigma), idx)
	res, err := core.MineContext(context.Background(), s, core.Options{Threshold: psi, MaxPeriod: min(maxPeriod, s.Len()/2),
		Engine: core.EngineNaive, MaxPatternPeriod: -1})
	if err != nil {
		t.Fatal(err)
	}
	return res.Periodicities
}

func mustSummarize(t *testing.T, data []uint16, sigma, maxPeriod int) *core.Counts {
	t.Helper()
	c, err := summarize(data, sigma, maxPeriod)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSummaryMergeMatchesDirectBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	for trial := 0; trial < 15; trial++ {
		sigma := rng.Intn(3) + 2
		maxP := rng.Intn(12) + 1
		nA := rng.Intn(60) + 1
		nB := rng.Intn(60) + 1
		a := make([]uint16, nA)
		b := make([]uint16, nB)
		for i := range a {
			a[i] = uint16(rng.Intn(sigma))
		}
		for i := range b {
			b[i] = uint16(rng.Intn(sigma))
		}
		merged := mustSummarize(t, a, sigma, maxP)
		if err := merged.Merge(mustSummarize(t, b, sigma, maxP)); err != nil {
			t.Fatal(err)
		}
		whole := mustSummarize(t, append(append([]uint16(nil), a...), b...), sigma, maxP)
		if merged.Length != whole.Length {
			t.Fatalf("trial %d: length %d vs %d", trial, merged.Length, whole.Length)
		}
		if !reflect.DeepEqual(merged.Head, whole.Head) || !reflect.DeepEqual(merged.Tail, whole.Tail) {
			t.Fatalf("trial %d (nA=%d nB=%d maxP=%d): head/tail mismatch", trial, nA, nB, maxP)
		}
		for k := 0; k < sigma; k++ {
			for p := 1; p <= maxP; p++ {
				for l := 0; l < p; l++ {
					if mv, wv := merged.F2(k, p, l), whole.F2(k, p, l); mv != wv {
						t.Fatalf("trial %d: F2(%d,%d,%d) = %d, want %d", trial, k, p, l, mv, wv)
					}
				}
			}
		}
	}
}

func TestSummaryMergeShapeMismatch(t *testing.T) {
	a := mustSummarize(t, []uint16{0, 1}, 2, 3)
	b := mustSummarize(t, []uint16{0, 1}, 2, 4)
	if err := a.Merge(b); err == nil {
		t.Fatal("maxPeriod mismatch: want error")
	}
}

func TestDBPeriodicitiesMatchBatchMiner(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	dir := t.TempDir()
	db, err := Open(dir, Options{Sigma: 4, MaxPeriod: 15, SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	var stream []int
	for i := 0; i < 500; i++ {
		k := i % 5 % 4 // periodic-ish with irregularity
		if rng.Float64() < 0.2 {
			k = rng.Intn(4)
		}
		stream = append(stream, k)
		if err := db.Append(k); err != nil {
			t.Fatal(err)
		}
	}
	got, err := periodicities(db, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	want := referencePeriodicities(t, stream, 4, 15, 0.4)
	if !reflect.DeepEqual(sortPers(got), sortPers(want)) {
		t.Fatalf("store answers differ from batch miner: %d vs %d", len(got), len(want))
	}
}

func TestDBSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Sigma: 3, MaxPeriod: 10, SegmentSize: 50}
	db, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	var stream []int
	for i := 0; i < 240; i++ {
		k := i % 3
		stream = append(stream, k)
		if err := db.Append(k); err != nil {
			t.Fatal(err)
		}
	}
	before, err := periodicities(db, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Len() != 240 {
		t.Fatalf("reopened Len = %d, want 240", db2.Len())
	}
	after, err := periodicities(db2, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortPers(before), sortPers(after)) {
		t.Fatal("answers changed across reopen")
	}
}

func TestDBRebuildsMissingSummary(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Sigma: 2, MaxPeriod: 6, SegmentSize: 40}
	db, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		_ = db.Append(i % 2)
	}
	want, _ := periodicities(db, 0.9)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Delete one summary file; Open must rebuild it from the segment.
	if err := os.Remove(filepath.Join(dir, "00000001.sum")); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := periodicities(db2, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortPers(got), sortPers(want)) {
		t.Fatal("rebuilt summary changed the answers")
	}
	if _, err := os.Stat(filepath.Join(dir, "00000001.sum")); err != nil {
		t.Fatal("rebuilt summary not persisted")
	}
}

func TestDBRangeQuery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Sigma: 3, MaxPeriod: 8, SegmentSize: 30})
	if err != nil {
		t.Fatal(err)
	}
	// Segments 0-1: period 3. Segments 2-3: period 2.
	var first, second []int
	for i := 0; i < 60; i++ {
		k := i % 3
		first = append(first, k)
		_ = db.Append(k)
	}
	for i := 0; i < 60; i++ {
		k := i % 2
		second = append(second, k)
		_ = db.Append(k)
	}
	if db.Segments() != 4 {
		t.Fatalf("segments = %d, want 4", db.Segments())
	}
	got, err := db.PeriodicitiesRange(0, 2, core.Options{Threshold: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	want := referencePeriodicities(t, first, 3, 8, 0.9)
	if !reflect.DeepEqual(sortPers(got), sortPers(want)) {
		t.Fatal("range [0,2) differs from mining the first half")
	}
	got, err = db.PeriodicitiesRange(2, 4, core.Options{Threshold: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	want = referencePeriodicities(t, second, 3, 8, 0.9)
	if !reflect.DeepEqual(sortPers(got), sortPers(want)) {
		t.Fatal("range [2,4) differs from mining the second half")
	}
}

func TestDBValidates(t *testing.T) {
	dir := t.TempDir()
	bad := []Options{
		{Sigma: 0, MaxPeriod: 5, SegmentSize: 10},
		{Sigma: 30, MaxPeriod: 5, SegmentSize: 10},
		{Sigma: 3, MaxPeriod: 0, SegmentSize: 10},
		{Sigma: 3, MaxPeriod: 20, SegmentSize: 10},
	}
	for _, opt := range bad {
		if _, err := Open(dir, opt); err == nil {
			t.Errorf("Open(%+v): want error", opt)
		}
	}
	db, err := Open(dir, Options{Sigma: 3, MaxPeriod: 5, SegmentSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append(9); err == nil {
		t.Fatal("bad symbol: want error")
	}
	for _, psi := range []float64{0, 1.5} {
		if _, err := periodicities(db, psi); !errors.Is(err, core.ErrInvalidInput) {
			t.Fatalf("ψ=%v: error %v does not match ErrInvalidInput", psi, err)
		}
	}
	if _, err := db.PeriodicitiesRange(0, 5, core.Options{Threshold: 0.5}); err == nil {
		t.Fatal("range beyond segments: want error")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(0); err == nil {
		t.Fatal("append after close: want error")
	}
	// Reopening with mismatching options must fail.
	if _, err := Open(dir, Options{Sigma: 4, MaxPeriod: 5, SegmentSize: 10}); err == nil {
		t.Fatal("manifest mismatch: want error")
	}
}

func TestDBReadRangeAndMine(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Sigma: 3, MaxPeriod: 10, SegmentSize: 30})
	if err != nil {
		t.Fatal(err)
	}
	var stream []int
	for i := 0; i < 95; i++ { // 3 sealed segments + 5 active symbols
		k := i % 3
		stream = append(stream, k)
		_ = db.Append(k)
	}
	s, err := db.ReadRange(0, db.Segments())
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 95 {
		t.Fatalf("ReadRange length %d, want 95 (with active)", s.Len())
	}
	for i, k := range stream {
		if s.At(i) != k {
			t.Fatalf("symbol %d = %d, want %d", i, s.At(i), k)
		}
	}
	res, err := db.Mine(0, db.Segments(), core.Options{Threshold: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, pt := range res.Patterns {
		if pt.Period == 3 && pt.FixedSymbols() == 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("full pattern abc not mined from the store")
	}
	// Partial ranges exclude the active segment.
	part, err := db.ReadRange(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if part.Len() != 30 {
		t.Fatalf("partial range length %d, want 30", part.Len())
	}
	if _, err := db.ReadRange(0, 99); err == nil {
		t.Fatal("range beyond segments: want error")
	}
}

func TestDBEmptyQueries(t *testing.T) {
	db, err := Open(t.TempDir(), Options{Sigma: 2, MaxPeriod: 4, SegmentSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	pers, err := periodicities(db, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if pers != nil {
		t.Fatalf("empty store returned %v", pers)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if db.Segments() != 0 {
		t.Fatal("flush of empty store created a segment")
	}
}
