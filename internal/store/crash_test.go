package store

// The crash-consistency harness: run an append/flush workload under the
// fault-injecting file layer, fault every enumerated write operation in
// turn (transient EIO, hard crash, torn write + crash), then reopen with
// the real filesystem — the "next process" — and assert that the store
// recovers, Verify reports clean, and every symbol sealed before the fault
// is still readable as an exact prefix of the input stream.

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"periodica/internal/iofault"
)

var crashOpt = Options{Sigma: 3, MaxPeriod: 6, SegmentSize: 16}

// crashStream is a deterministic periodic-ish input.
func crashStream(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i % 4 % 3
	}
	return out
}

// sealedSymbols is the durable watermark: symbols held by sealed segments.
func sealedSymbols(db *DB) int {
	total := 0
	for _, s := range db.sealed {
		total += s.Length
	}
	return total
}

// runCrashWorkload opens a store on fsys and appends stream symbol by
// symbol, flushing a short segment two-thirds in and closing at the end.
// It returns the watermark after the last successful operation and the
// first error hit.
func runCrashWorkload(fsys iofault.FS, dir string, stream []int) (int, error) {
	db, err := OpenFS(fsys, dir, crashOpt)
	if err != nil {
		return 0, err
	}
	watermark := sealedSymbols(db)
	for i, k := range stream {
		if err := db.Append(k); err != nil {
			return watermark, err
		}
		watermark = sealedSymbols(db)
		if i == len(stream)*2/3 {
			if err := db.Flush(); err != nil {
				return watermark, err
			}
			watermark = sealedSymbols(db)
		}
	}
	if err := db.Close(); err != nil {
		return watermark, err
	}
	return sealedSymbols(db), nil
}

// reopenAndCheck plays the next process: reopen the faulted directory on the
// real filesystem and assert recovery, cleanliness, and prefix durability.
func reopenAndCheck(t *testing.T, dir string, stream []int, watermark int, tag string) {
	t.Helper()
	db, err := OpenExisting(dir)
	if err != nil {
		// The only legitimate reopen failure: the fault predates the init
		// commit, so no store ever durably existed.
		if watermark == 0 {
			if _, serr := os.Stat(filepath.Join(dir, manifestName)); errors.Is(serr, fs.ErrNotExist) {
				return
			}
		}
		exportCrashArtifacts(t, dir)
		t.Fatalf("%s: reopen failed with %d durable symbols: %v", tag, watermark, err)
	}
	durable := sealedSymbols(db)
	if durable < watermark {
		exportCrashArtifacts(t, dir)
		t.Fatalf("%s: %d symbols durable, watermark was %d", tag, durable, watermark)
	}
	if db.Segments() > 0 {
		s, err := db.ReadRange(0, db.Segments())
		if err != nil {
			exportCrashArtifacts(t, dir)
			t.Fatalf("%s: reading recovered data: %v", tag, err)
		}
		if s.Len() != durable {
			exportCrashArtifacts(t, dir)
			t.Fatalf("%s: read %d symbols, summaries claim %d", tag, s.Len(), durable)
		}
		for i := 0; i < s.Len(); i++ {
			if s.At(i) != stream[i] {
				exportCrashArtifacts(t, dir)
				t.Fatalf("%s: recovered symbol %d = %d, want %d (not a prefix)", tag, i, s.At(i), stream[i])
			}
		}
	}
	rep, err := db.Verify()
	if err != nil {
		t.Fatalf("%s: verify: %v", tag, err)
	}
	if !rep.Clean() {
		exportCrashArtifacts(t, dir)
		t.Fatalf("%s: verify not clean after recovery: %v", tag, rep.Problems)
	}
	// The recovered store must stay writable.
	if err := db.Append(0, 1, 2); err != nil {
		t.Fatalf("%s: append after recovery: %v", tag, err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("%s: close after recovery: %v", tag, err)
	}
}

// exportCrashArtifacts copies the faulted store directory to the artifact
// directory CI uploads on failure (PERIODICA_ARTIFACT_DIR, if set).
func exportCrashArtifacts(t *testing.T, dir string) {
	t.Helper()
	root := os.Getenv("PERIODICA_ARTIFACT_DIR")
	if root == "" {
		return
	}
	dst := filepath.Join(root, filepath.Base(t.Name())+"-"+filepath.Base(dir))
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Logf("artifact export: %v", err)
		return
	}
	_ = filepath.Walk(dir, func(path string, info fs.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, rerr := filepath.Rel(dir, path)
		if rerr != nil {
			return rerr
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		raw, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		return os.WriteFile(out, raw, 0o644)
	})
	t.Logf("faulted store exported to %s", dst)
}

// enumerateCrashPoints counts the workload's write operations once.
func enumerateCrashPoints(t *testing.T, stream []int) int64 {
	t.Helper()
	in := iofault.NewInjector(iofault.OS(), iofault.ModeCount, 0, 1)
	if _, err := runCrashWorkload(in, t.TempDir(), stream); err != nil {
		t.Fatalf("counting run failed: %v", err)
	}
	if in.Ops() == 0 {
		t.Fatal("workload performed no write operations")
	}
	return in.Ops()
}

func TestCrashConsistencyAppendSweep(t *testing.T) {
	stream := crashStream(60)
	total := enumerateCrashPoints(t, stream)
	modes := []struct {
		name string
		mode iofault.Mode
	}{
		{"crash", iofault.ModeCrash},
		{"torn", iofault.ModeTorn},
		{"eio", iofault.ModeEIO},
	}
	for _, m := range modes {
		for at := int64(1); at <= total; at++ {
			dir := t.TempDir()
			in := iofault.NewInjector(iofault.OS(), m.mode, at, at*7919+3)
			watermark, err := runCrashWorkload(in, dir, stream)
			if err == nil {
				t.Fatalf("%s@%d: fault did not surface as an error", m.name, at)
			}
			switch m.mode {
			case iofault.ModeEIO:
				if !errors.Is(err, iofault.ErrInjected) {
					t.Fatalf("%s@%d: err = %v, want ErrInjected", m.name, at, err)
				}
			default:
				if !errors.Is(err, iofault.ErrCrashed) {
					t.Fatalf("%s@%d: err = %v, want ErrCrashed", m.name, at, err)
				}
			}
			reopenAndCheck(t, dir, stream, watermark, m.name+"@"+itoa(at))
		}
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [24]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TestCrashConsistencyDoubleFault reopens the store under a second injector,
// so the recovery pass itself (temp sweep, summary rebuild, tail
// quarantine) is also swept for crash safety.
func TestCrashConsistencyDoubleFault(t *testing.T) {
	stream := crashStream(60)
	total := enumerateCrashPoints(t, stream)
	// First fault: a crash two-thirds through the workload's write ops —
	// late enough that recovery has real work (sealed segments, often a
	// mid-seal tear).
	firstAt := total * 2 / 3
	if firstAt < 1 {
		firstAt = 1
	}

	// Enumerate the recovery pass's own write ops.
	proto := t.TempDir()
	in := iofault.NewInjector(iofault.OS(), iofault.ModeCrash, firstAt, 5)
	watermark, err := runCrashWorkload(in, proto, stream)
	if err == nil {
		t.Fatal("first fault did not surface")
	}
	counter := iofault.NewInjector(iofault.OS(), iofault.ModeCount, 0, 1)
	if _, err := OpenExistingFS(counter, proto); err != nil {
		t.Fatalf("recovery under counting layer: %v", err)
	}
	recoveryOps := counter.Ops()

	for at := int64(1); at <= recoveryOps; at++ {
		dir := t.TempDir()
		in := iofault.NewInjector(iofault.OS(), iofault.ModeCrash, firstAt, 5)
		wm, err := runCrashWorkload(in, dir, stream)
		if err == nil {
			t.Fatal("first fault did not surface")
		}
		if wm != watermark {
			t.Fatalf("first fault not deterministic: watermark %d vs %d", wm, watermark)
		}
		// Crash the recovery pass at write op `at`…
		rec := iofault.NewInjector(iofault.OS(), iofault.ModeCrash, at, at)
		if _, err := OpenExistingFS(rec, dir); err == nil && rec.Fired() {
			t.Fatalf("recovery@%d: fault did not surface", at)
		}
		// …then recover for real and hold the same guarantees.
		reopenAndCheck(t, dir, stream, watermark, "double@"+itoa(at))
	}
}

// TestFaultEIOAppendContinues checks the transient-error path inside one
// process: after an injected EIO the same DB handle keeps working, and
// nothing on disk is corrupted.
func TestFaultEIOAppendContinues(t *testing.T) {
	dir := t.TempDir()
	in := iofault.NewInjector(iofault.OS(), iofault.ModeEIO, 9, 1)
	db, err := OpenFS(in, dir, crashOpt)
	if err != nil {
		t.Fatal(err)
	}
	stream := crashStream(64)
	sawErr := false
	for _, k := range stream {
		if err := db.Append(k); err != nil {
			if !errors.Is(err, iofault.ErrInjected) {
				t.Fatalf("append: %v", err)
			}
			sawErr = true
			// Retry the same symbol: the failed seal left the active
			// segment in memory, so the append is repeatable.
			if err := db.Append(k); err != nil {
				t.Fatalf("retry after EIO: %v", err)
			}
		}
	}
	if !sawErr {
		t.Fatal("EIO fault never fired")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenExisting(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := db2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("store not clean after in-process EIO: %v", rep.Problems)
	}
	s, err := db2.ReadRange(0, db2.Segments())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Indices()[:len(stream)], toU16(stream)) {
		t.Fatal("stream corrupted by transient EIO")
	}
}

func toU16(stream []int) []uint16 {
	out := make([]uint16, len(stream))
	for i, k := range stream {
		out[i] = uint16(k)
	}
	return out
}
