package fft

// Fault handling of the out-of-core autocorrelation: its scratch files are
// private, so an I/O error at any write operation must leave the directory
// as it found it — only the indicator, unmodified.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"periodica/internal/iofault"
)

// TestAutocorrelateFileCleanupOnFault checks that the autocorrelation
// pipeline removes both of its private scratch files on success and on
// every faulted write op, and never touches the indicator.
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
	want, err := autocorrelateFile(counter, path, n, externalMemElements)
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
		got, err := autocorrelateFile(in, fpath, n, externalMemElements)
		if err == nil {
			// Fault swallowed by best-effort scratch cleanup (a stray
			// scratch file may remain); the counts must still be right.
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
