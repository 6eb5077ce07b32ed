package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"periodica/internal/store"
)

func TestParseSymbol(t *testing.T) {
	cases := []struct {
		ch    rune
		sigma int
		want  int
		errIs string // substring the error must carry; empty = no error
	}{
		{'a', 5, 0, ""},
		{'e', 5, 4, ""},
		{'f', 5, 0, "a..e (σ=5)"}, // one past the configured alphabet
		{'z', 5, 0, "a..e (σ=5)"}, // far past it
		{'A', 5, 0, "not a lowercase"},
		{'3', 5, 0, "not a lowercase"},
		{'λ', 5, 0, "not a lowercase"}, // oversized rune must not wrap into range
		{'é', 5, 0, "not a lowercase"},
		{'\x00', 5, 0, "not a lowercase"},
		{'z', 26, 25, ""},
	}
	for _, c := range cases {
		got, err := parseSymbol(c.ch, c.sigma)
		if c.errIs == "" {
			if err != nil {
				t.Errorf("parseSymbol(%q, %d): unexpected error %v", c.ch, c.sigma, err)
			} else if got != c.want {
				t.Errorf("parseSymbol(%q, %d) = %d, want %d", c.ch, c.sigma, got, c.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("parseSymbol(%q, %d): want error containing %q, got %d", c.ch, c.sigma, c.errIs, got)
		} else if !strings.Contains(err.Error(), c.errIs) {
			t.Errorf("parseSymbol(%q, %d): error %q does not mention %q", c.ch, c.sigma, err, c.errIs)
		}
	}
}

func TestVerifyRepairCommands(t *testing.T) {
	dir := t.TempDir()
	db, err := store.Open(dir, store.Options{Sigma: 3, MaxPeriod: 4, SegmentSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := db.Append(i % 3); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := runVerify(dir, &out); err != nil {
		t.Fatalf("verify on a clean store: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "store is clean") {
		t.Fatalf("verify output missing clean notice:\n%s", out.String())
	}

	// Corrupt a summary: verify must fail and name the file, repair must
	// rebuild it, and a second verify must pass.
	sum := filepath.Join(dir, "00000000.sum")
	raw, err := os.ReadFile(sum)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(sum, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	err = runVerify(dir, &out)
	if err == nil {
		t.Fatalf("verify missed the corruption:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "repair") {
		t.Fatalf("verify error %q does not point at repair", err)
	}
	if !strings.Contains(out.String(), "00000000.sum") {
		t.Fatalf("verify output does not name the damaged file:\n%s", out.String())
	}

	out.Reset()
	if err := runRepair(dir, &out); err != nil {
		t.Fatalf("repair: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "rebuilt summary") {
		t.Fatalf("repair output missing the rebuild action:\n%s", out.String())
	}
	out.Reset()
	if err := runVerify(dir, &out); err != nil {
		t.Fatalf("verify after repair: %v\n%s", err, out.String())
	}
}

func TestQueryOptions(t *testing.T) {
	opt, err := queryOptions("conf >= 0.8 and pairs >= 2 and period <= 64")
	if err != nil {
		t.Fatal(err)
	}
	if opt.Threshold != 0.8 || opt.MinPairs != 2 || opt.MaxPeriod != 64 {
		t.Fatalf("queryOptions lowered to %+v", opt)
	}
	for _, src := range []string{"conf >= 2", "conf >= 0.8 and symbol in {a}", "conf >= 0.8 and limit 3 by conf", "conf >= 0.8 and maximal only"} {
		if _, err := queryOptions(src); err == nil {
			t.Errorf("queryOptions(%q): want error", src)
		}
	}
}
