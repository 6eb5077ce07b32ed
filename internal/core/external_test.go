package core

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"periodica/internal/alphabet"
	"periodica/internal/series"
)

func TestDetectCandidatesFileMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	idx := make([]uint16, 2000)
	pattern := []uint16{0, 1, 2, 3, 1, 0, 2}
	for i := range idx {
		idx[i] = pattern[i%len(pattern)]
		if rng.Float64() < 0.15 {
			idx[i] = uint16(rng.Intn(4))
		}
	}
	s := series.FromIndices(alphabet.Letters(4), idx)
	path := filepath.Join(t.TempDir(), "series.bin")
	if err := writeSeriesFile(path, s); err != nil {
		t.Fatal(err)
	}

	got, err := DetectCandidatesFile(path, 0.7, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := detectCandidates(s, 0.7, 0)
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
}

func TestDetectCandidatesFileValidates(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.bin")
	if _, err := DetectCandidatesFile(missing, 0.5, 0); err == nil {
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
		if _, err := DetectCandidatesFile(bad, 0.5, 0); err == nil {
			t.Fatalf("%s: want error", tc.name)
		}
	}

	s := series.FromString("abcabc")
	ok := filepath.Join(dir, "ok.bin")
	if err := writeSeriesFile(ok, s); err != nil {
		t.Fatal(err)
	}
	if _, err := DetectCandidatesFile(ok, 0, 0); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("ψ=0: error %v does not match ErrInvalidInput", err)
	}
	if _, err := DetectCandidatesFile(ok, 0.5, 99); !errors.Is(err, ErrInvalidInput) {
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
