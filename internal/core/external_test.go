package core

import (
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
	if err := WriteSeriesFile(path, s); err != nil {
		t.Fatal(err)
	}

	got, err := DetectCandidatesFile(path, 0.7, 0, ExternalConfig{MemElements: 1 << 14})
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
	if _, err := DetectCandidatesFile(missing, 0.5, 0, ExternalConfig{}); err == nil {
		t.Fatal("missing file: want error")
	}

	bad := filepath.Join(dir, "bad.bin")
	if err := os.WriteFile(bad, []byte("NOPE 1 2\nxx"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := DetectCandidatesFile(bad, 0.5, 0, ExternalConfig{}); err == nil {
		t.Fatal("bad header: want error")
	}

	s := series.FromString("abcabc")
	ok := filepath.Join(dir, "ok.bin")
	if err := WriteSeriesFile(ok, s); err != nil {
		t.Fatal(err)
	}
	if _, err := DetectCandidatesFile(ok, 0, 0, ExternalConfig{}); err == nil {
		t.Fatal("ψ=0: want error")
	}
	if _, err := DetectCandidatesFile(ok, 0.5, 99, ExternalConfig{}); err == nil {
		t.Fatal("maxPeriod ≥ n: want error")
	}

	truncated := filepath.Join(dir, "trunc.bin")
	if err := os.WriteFile(truncated, []byte("PSER1 2 100\n\x00\x01"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := DetectCandidatesFile(truncated, 0.5, 0, ExternalConfig{}); err == nil {
		t.Fatal("truncated body: want error")
	}
}
