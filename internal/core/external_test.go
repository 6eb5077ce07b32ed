package core

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"periodica/internal/alphabet"
	"periodica/internal/series"
)

// TestDetectCandidatesFileMatchesInMemory: the streamed detector answers
// exactly as the in-memory one over every block layout — many blocks, a
// short last block, one block holding the whole series, the smallest block
// — and over an alphabet symbol that never occurs.
func TestDetectCandidatesFileMatchesInMemory(t *testing.T) {
	for _, tc := range []struct {
		name                string
		n, sigma, maxPeriod int // the series draws symbols 0..3 only
	}{
		{"default band", 2000, 4, 0},
		{"many blocks", 5000, 4, 64},
		{"n not a multiple of B", 1001, 4, 100},
		{"symbol never occurs", 600, 5, 0},
		{"one block", 40, 4, 39},
		{"smallest block", 3001, 4, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := noisyPeriodSeven(tc.n, tc.sigma)
			path := filepath.Join(t.TempDir(), "series.bin")
			if err := writeSeriesFile(path, s); err != nil {
				t.Fatal(err)
			}
			got, err := DetectCandidatesFile(path, 0.7, 0, tc.maxPeriod)
			if err != nil {
				t.Fatal(err)
			}
			want, err := detectCandidates(s, 0.7, tc.maxPeriod)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("on-disk candidates differ from in-memory:\n got %v\nwant %v", got, want)
			}
			// Sanity: the embedded period 7 must be among the candidates.
			found := false
			for _, c := range got {
				if c.Period == 7 {
					found = true
				}
			}
			if !found {
				t.Fatal("embedded period 7 missing from on-disk candidates")
			}
		})
	}
}

// noisyPeriodSeven returns n symbols of a period-7 pattern over symbols
// 0..3, 15% of them replaced at random, in the σ-letter alphabet (σ ≥ 4).
func noisyPeriodSeven(n, sigma int) *series.Series {
	rng := rand.New(rand.NewSource(41))
	idx := make([]uint16, n)
	pattern := []uint16{0, 1, 2, 3, 1, 0, 2}
	for i := range idx {
		idx[i] = pattern[i%len(pattern)]
		if rng.Float64() < 0.15 {
			idx[i] = uint16(rng.Intn(4))
		}
	}
	return series.FromIndices(alphabet.Letters(sigma), idx)
}

// TestDetectCandidatesFileWritesNothing: the streamed detector creates no
// file or directory, neither beside the series nor in the temp directory,
// while it runs or after it returns.
func TestDetectCandidatesFileWritesNothing(t *testing.T) {
	dir, tmp := t.TempDir(), t.TempDir()
	t.Setenv("TMPDIR", tmp) // os.TempDir() is now private to this test
	path := filepath.Join(dir, "series.bin")
	if err := writeSeriesFile(path, noisyPeriodSeven(1<<16, 4)); err != nil {
		t.Fatal(err)
	}
	entries := func() int {
		a, errA := os.ReadDir(dir)
		b, errB := os.ReadDir(os.TempDir())
		if errA != nil || errB != nil {
			return -1
		}
		return len(a) + len(b)
	}
	var seen atomic.Int64
	seen.Store(1)
	done := make(chan struct{})
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		for {
			if c := entries(); c != 1 {
				seen.Store(int64(c))
			}
			select {
			case <-done:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	_, err := DetectCandidatesFile(path, 0.7, 0, 0)
	close(done)
	<-watched
	if err != nil {
		t.Fatal(err)
	}
	if c := seen.Load(); c != 1 {
		t.Fatalf("during the call the series and temp directories held %d entries, want only the series", c)
	}
	if c := entries(); c != 1 {
		t.Fatalf("after the call the series and temp directories hold %d entries, want only the series", c)
	}
}

func TestDetectCandidatesFileValidates(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.bin")
	if _, err := DetectCandidatesFile(missing, 0.5, 0, 0); err == nil {
		t.Fatal("missing file: want error")
	}

	for _, tc := range []struct{ name, body string }{
		{"bad magic", "NOPE 1 2\nxx"},
		{"σ < 1", "PSER1 0 2\n\x00\x00"},
		{"n < 1", "PSER1 2 0\n"},
		{"symbol byte ≥ σ", "PSER1 2 3\n\x00\x02\x01"},
		{"truncated body", "PSER1 2 100\n\x00\x01"},
	} {
		bad := filepath.Join(dir, "bad.bin")
		if err := os.WriteFile(bad, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := DetectCandidatesFile(bad, 0.5, 0, 0); err == nil {
			t.Fatalf("%s: want error", tc.name)
		}
	}

	s := series.FromString("abcabc")
	ok := filepath.Join(dir, "ok.bin")
	if err := writeSeriesFile(ok, s); err != nil {
		t.Fatal(err)
	}
	if _, err := DetectCandidatesFile(ok, 0, 0, 0); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("ψ=0: error %v does not match ErrInvalidInput", err)
	}
	if _, err := DetectCandidatesFile(ok, 0.5, 0, 99); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("maxPeriod ≥ n: error %v does not match ErrInvalidInput", err)
	}
}

// writeSeriesFile stores s in the on-disk format DetectCandidatesFile
// accepts.
func writeSeriesFile(path string, s *series.Series) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := series.WriteBinary(f, s); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
