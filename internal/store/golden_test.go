package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"periodica/internal/core"
)

// The store under testdata/v1store was written from goldenLog with
// goldenOpt: two full segments and a three-symbol tail segment shorter than
// MaxPeriod, so its summaries cover both the full and the short head/tail
// shapes. Its summary frames pin the on-disk format: a change to how
// summaries are built or encoded must leave these bytes alone.
const goldenLog = "abcabbacbcabcaabcbbacab"

var goldenOpt = Options{Sigma: 3, MaxPeriod: 4, SegmentSize: 10}

// goldenSummarySHA256 holds the SHA-256 of each summary frame in
// testdata/v1store, in segment order.
var goldenSummarySHA256 = []string{
	"4a025ee48bddbb4d1f0bcee49d90a1f6a6604e7b0539ab2b8a826e9c5865d199",
	"74d1c1600c3946665468a7e31c834902a2d0aea27e30ee69b41620bfc32d18d2",
	"f88ddd5b4da43d48299f5e9fb5f80749146150a04fc713f201852593df2b3688",
}

func writeGoldenLog(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(dir, goldenOpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range goldenLog {
		if err := db.Append(int(r - 'a')); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestSummaryFrameGolden(t *testing.T) {
	dir := t.TempDir()
	writeGoldenLog(t, dir)
	for i, want := range goldenSummarySHA256 {
		got, err := os.ReadFile(filepath.Join(dir, sumName(i)))
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(got); hex.EncodeToString(sum[:]) != want {
			t.Errorf("summary %d: frame SHA-256 %x, want %s", i, sum, want)
		}
		committed, err := os.ReadFile(filepath.Join("testdata", "v1store", sumName(i)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, committed) {
			t.Errorf("summary %d: written frame differs from testdata/v1store", i)
		}
	}
}

func TestOpenCommittedV1Store(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "v1store")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old, err := OpenExisting(dir)
	if err != nil {
		t.Fatal(err)
	}
	fresh := writeGoldenLog(t, t.TempDir())
	if old.Len() != len(goldenLog) || old.Segments() != fresh.Segments() {
		t.Fatalf("committed store: %d symbols in %d segments, want %d in %d",
			old.Len(), old.Segments(), len(goldenLog), fresh.Segments())
	}
	stream := make([]int, len(goldenLog))
	for i, r := range goldenLog {
		stream[i] = int(r - 'a')
	}
	for _, psi := range []float64{0.2, 0.25, 1.0 / 3, 0.5, 2.0 / 3, 1} {
		for from := 0; from <= old.Segments(); from++ {
			for to := from; to <= old.Segments(); to++ {
				got, err := old.PeriodicitiesRange(from, to, core.Options{Threshold: psi})
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.PeriodicitiesRange(from, to, core.Options{Threshold: psi})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("ψ=%v segments [%d,%d): committed store answers %v, fresh store %v", psi, from, to, got, want)
				}
			}
		}
		got, err := periodicities(old, psi)
		if err != nil {
			t.Fatal(err)
		}
		want := referencePeriodicities(t, stream, goldenOpt.Sigma, goldenOpt.MaxPeriod, psi)
		if !reflect.DeepEqual(sortPers(got), sortPers(want)) {
			t.Fatalf("ψ=%v: committed store answers %v, batch mine %v", psi, got, want)
		}
	}
}
