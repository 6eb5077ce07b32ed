package fft

// Crash-consistency for the external transform. The shadow-commit contract:
// after a fault at ANY write operation, the data file holds either the
// original bytes or the fully transformed bytes — never anything in between
// — and a clean rerun completes the job. The in-place contract is weaker by
// design: a crash may mangle the file, but then the stage manifest survives
// and the next TransformFile refuses with ErrInterrupted.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"periodica/internal/iofault"
)

const crashN = 64

func crashInput() []complex128 {
	vals := make([]complex128, crashN)
	for i := range vals {
		vals[i] = complex(float64(i%7)-3, float64(i%5)-2)
	}
	return vals
}

// writeCrashInput materialises the test vector and returns its path and raw
// bytes.
func writeCrashInput(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	path := filepath.Join(dir, "data.cpx")
	if err := writeComplexFile(path, crashInput()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw
}

// committedBytes runs one fault-free transform and returns the resulting
// file bytes; the algorithm is deterministic, so faulted runs that commit
// must produce these exact bytes.
func committedBytes(t *testing.T, opts ExternalOptions) []byte {
	t.Helper()
	dir := t.TempDir()
	path, _ := writeCrashInput(t, dir)
	if err := TransformFile(path, crashN, false, opts); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// countTransformOps enumerates the write operations of one transform.
func countTransformOps(t *testing.T, opts ExternalOptions) int64 {
	t.Helper()
	dir := t.TempDir()
	path, _ := writeCrashInput(t, dir)
	in := iofault.NewInjector(iofault.OS(), iofault.ModeCount, 0, 1)
	opts.FS = in
	if err := TransformFile(path, crashN, false, opts); err != nil {
		t.Fatalf("counting run: %v", err)
	}
	if in.Ops() == 0 {
		t.Fatal("transform performed no write operations")
	}
	return in.Ops()
}

func TestCrashConsistencyShadowCommitSweep(t *testing.T) {
	want := committedBytes(t, ExternalOptions{})
	total := countTransformOps(t, ExternalOptions{})
	for _, mode := range []iofault.Mode{iofault.ModeCrash, iofault.ModeTorn} {
		for at := int64(1); at <= total; at++ {
			dir := t.TempDir()
			path, original := writeCrashInput(t, dir)
			in := iofault.NewInjector(iofault.OS(), mode, at, at*31+7)
			err := TransformFile(path, crashN, false, ExternalOptions{FS: in})
			if err == nil {
				// The fault landed in post-commit best-effort cleanup (its
				// errors are deliberately swallowed); the transform itself
				// must have fully committed.
				raw, rerr := os.ReadFile(path)
				if rerr != nil || !bytes.Equal(raw, want) {
					t.Fatalf("mode %d @%d: nil error but file not committed (%v)", mode, at, rerr)
				}
				continue
			}
			if !errors.Is(err, iofault.ErrCrashed) {
				t.Fatalf("mode %d @%d: err = %v, want ErrCrashed", mode, at, err)
			}
			raw, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatalf("mode %d @%d: data file unreadable after crash: %v", mode, at, rerr)
			}
			switch {
			case bytes.Equal(raw, want):
				// Crash after the commit rename: transform fully applied.
			case bytes.Equal(raw, original):
				// Crash before the commit: input untouched. Cleaning up the
				// stranded temps (a real restart would sweep them) and
				// rerunning must finish the transform.
				removeTempFiles(t, dir, filepath.Base(path))
				if err := TransformFile(path, crashN, false, ExternalOptions{}); err != nil {
					t.Fatalf("mode %d @%d: clean rerun: %v", mode, at, err)
				}
				raw, rerr = os.ReadFile(path)
				if rerr != nil || !bytes.Equal(raw, want) {
					t.Fatalf("mode %d @%d: rerun did not produce the committed bytes (%v)", mode, at, rerr)
				}
			default:
				t.Fatalf("mode %d @%d: data file is neither original nor committed (torn commit)", mode, at)
			}
		}
	}
}

// TestFaultEIOShadowCleanupSweep faults each write op with a transient EIO; the
// error path must remove every scratch and shadow file it created, the
// input must survive (or be fully committed, when the fault lands after the
// rename), and an immediate retry on the same handle-free state succeeds.
func TestFaultEIOShadowCleanupSweep(t *testing.T) {
	want := committedBytes(t, ExternalOptions{})
	total := countTransformOps(t, ExternalOptions{})
	for at := int64(1); at <= total; at++ {
		dir := t.TempDir()
		path, original := writeCrashInput(t, dir)
		in := iofault.NewInjector(iofault.OS(), iofault.ModeEIO, at, at)
		err := TransformFile(path, crashN, false, ExternalOptions{FS: in})
		if err == nil {
			// Fault swallowed by post-commit best-effort cleanup; a stray
			// scratch file may survive (the cleanup is what failed), but the
			// transform must be committed.
			raw, rerr := os.ReadFile(path)
			if rerr != nil || !bytes.Equal(raw, want) {
				t.Fatalf("eio@%d: nil error but file not committed (%v)", at, rerr)
			}
			continue
		}
		if !errors.Is(err, iofault.ErrInjected) {
			t.Fatalf("eio@%d: err = %v, want ErrInjected", at, err)
		}
		entries, lerr := os.ReadDir(dir)
		if lerr != nil {
			t.Fatal(lerr)
		}
		for _, e := range entries {
			if e.Name() != filepath.Base(path) {
				t.Fatalf("eio@%d: stray file %s left behind after error return", at, e.Name())
			}
		}
		raw, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if !bytes.Equal(raw, original) {
			// The only op whose failure can postdate the commit is the
			// directory sync; then the file must hold the full transform.
			if !bytes.Equal(raw, want) {
				t.Fatalf("eio@%d: data file is neither original nor committed", at)
			}
			continue
		}
		if err := TransformFile(path, crashN, false, ExternalOptions{}); err != nil {
			t.Fatalf("eio@%d: retry: %v", at, err)
		}
		raw, rerr = os.ReadFile(path)
		if rerr != nil || !bytes.Equal(raw, want) {
			t.Fatalf("eio@%d: retry did not produce the committed bytes (%v)", at, rerr)
		}
	}
}

// TestCrashConsistencyInPlaceDetection sweeps crashes through the opt-in
// in-place mode: at every crash point the data file is either still the
// original bytes, or the stage manifest survives and the next TransformFile
// refuses with ErrInterrupted instead of double-transforming a half-written
// file.
func TestCrashConsistencyInPlaceDetection(t *testing.T) {
	opts := ExternalOptions{InPlace: true}
	total := countTransformOps(t, opts)
	sawInterrupted := false
	for at := int64(1); at <= total; at++ {
		dir := t.TempDir()
		path, original := writeCrashInput(t, dir)
		in := iofault.NewInjector(iofault.OS(), iofault.ModeCrash, at, at*13+1)
		err := TransformFile(path, crashN, false, ExternalOptions{InPlace: true, FS: in})
		if err == nil {
			// Fault landed in the deferred state-file removal: the transform
			// completed, and if the manifest survived, detection must still
			// fire (a conservative false positive, never a missed tear).
			if _, serr := os.Stat(path + stateSuffix); serr == nil {
				if rerun := TransformFile(path, crashN, false, ExternalOptions{}); !errors.Is(rerun, ErrInterrupted) {
					t.Fatalf("inplace@%d: stale state file, rerun err = %v, want ErrInterrupted", at, rerun)
				}
			}
			continue
		}
		raw, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if _, serr := os.Stat(path + stateSuffix); serr == nil {
			rerun := TransformFile(path, crashN, false, ExternalOptions{})
			if !errors.Is(rerun, ErrInterrupted) {
				t.Fatalf("inplace@%d: stale state file, rerun err = %v, want ErrInterrupted", at, rerun)
			}
			sawInterrupted = true
		} else if !bytes.Equal(raw, original) {
			t.Fatalf("inplace@%d: file mutated but no stage manifest survived the crash", at)
		}
	}
	if !sawInterrupted {
		t.Fatal("sweep never exercised the ErrInterrupted detection path")
	}
}

// TestTransformFileTmpDirCrossDir is the regression test for scratch living
// on a different directory (possibly another filesystem) than the data
// file: the transform must still commit atomically beside the data file and
// leave both directories clean.
func TestTransformFileTmpDirCrossDir(t *testing.T) {
	want := committedBytes(t, ExternalOptions{})
	dataDir := t.TempDir()
	tmpDir := t.TempDir()
	path, _ := writeCrashInput(t, dataDir)
	if err := TransformFile(path, crashN, false, ExternalOptions{TmpDir: tmpDir}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatal("cross-dir TmpDir changed the transform result")
	}
	for _, d := range []string{dataDir, tmpDir} {
		entries, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Name() != filepath.Base(path) {
				t.Fatalf("stray file %s left in %s", e.Name(), d)
			}
		}
	}
}

// TestAutocorrelateFileCleanupOnFault checks that the autocorrelation
// pipeline removes its private work file (and the work file's stage
// manifest) on both success and every faulted write op, and never touches
// the indicator.
func TestAutocorrelateFileCleanupOnFault(t *testing.T) {
	const n = 48
	indicator := make([]byte, n)
	for i := range indicator {
		if i%5 == 0 || i%7 == 0 {
			indicator[i] = 1
		}
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "indicator.bin")
	if err := os.WriteFile(path, indicator, 0o644); err != nil {
		t.Fatal(err)
	}
	counter := iofault.NewInjector(iofault.OS(), iofault.ModeCount, 0, 1)
	want, err := AutocorrelateFile(path, n, ExternalOptions{FS: counter})
	if err != nil {
		t.Fatal(err)
	}
	assertOnlyFile(t, dir, "indicator.bin")
	// Spot-check against the direct definition.
	for p := 0; p < n; p++ {
		var r int64
		for i := 0; i+p < n; i++ {
			if indicator[i] == 1 && indicator[i+p] == 1 {
				r++
			}
		}
		if want[p] != r {
			t.Fatalf("r[%d] = %d, want %d", p, want[p], r)
		}
	}

	for at := int64(1); at <= counter.Ops(); at++ {
		fdir := t.TempDir()
		fpath := filepath.Join(fdir, "indicator.bin")
		if err := os.WriteFile(fpath, indicator, 0o644); err != nil {
			t.Fatal(err)
		}
		in := iofault.NewInjector(iofault.OS(), iofault.ModeEIO, at, at)
		got, err := AutocorrelateFile(fpath, n, ExternalOptions{FS: in})
		if err == nil {
			// Fault swallowed by best-effort scratch cleanup (a stray work
			// file may remain); the counts must still be right.
			for p := range want {
				if got[p] != want[p] {
					t.Fatalf("eio@%d: nil error but r[%d] = %d, want %d", at, p, got[p], want[p])
				}
			}
			continue
		}
		assertOnlyFile(t, fdir, "indicator.bin")
		raw, err := os.ReadFile(fpath)
		if err != nil || !bytes.Equal(raw, indicator) {
			t.Fatalf("eio@%d: indicator mutated (%v)", at, err)
		}
	}
}

func assertOnlyFile(t *testing.T, dir, name string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != name {
			t.Fatalf("stray file %s left in %s", e.Name(), dir)
		}
	}
}

// removeTempFiles clears stranded shadow/scratch temps after a simulated
// crash, standing in for the restart-time sweep a caller would run.
func removeTempFiles(t *testing.T, dir, keep string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != keep {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
}
