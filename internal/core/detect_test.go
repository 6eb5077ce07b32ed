package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"periodica/internal/alphabet"
	"periodica/internal/series"
)

func TestDetectCandidatesSoundPrune(t *testing.T) {
	// Every period with a true Definition-1 periodicity must be in the
	// candidate set — the aggregate test is necessary, never falsely
	// dismissive.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		n := rng.Intn(300) + 30
		idx := make([]uint16, n)
		for i := range idx {
			idx[i] = uint16(rng.Intn(4))
		}
		s := series.FromIndices(alphabet.Letters(4), idx)
		for _, psi := range []float64{0.3, 0.7, 1} {
			cands, err := detectCandidates(s, psi, 0)
			if err != nil {
				t.Fatal(err)
			}
			inCands := map[int]bool{}
			for _, c := range cands {
				inCands[c.Period] = true
			}
			res, err := mine(s, Options{Threshold: psi, Engine: EngineNaive, MaxPatternPeriod: -1})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range res.Periods {
				if !inCands[p] {
					t.Fatalf("n=%d ψ=%v: true period %d missing from candidates", n, psi, p)
				}
			}
		}
	}
}

func TestDetectCandidatesPerfectPeriodic(t *testing.T) {
	s := series.FromString("abcdabcdabcdabcdabcdabcdabcdabcd")
	cands, err := detectCandidates(s, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]bool{}
	for _, c := range cands {
		got[c.Period] = true
	}
	for _, p := range []int{4, 8, 12, 16} {
		if !got[p] {
			t.Fatalf("period %d missing from candidates %v", p, cands)
		}
	}
	// With four distinct symbols cycling, no symbol ever matches at lag 1.
	if got[1] {
		t.Fatal("period 1 should not be a candidate at ψ=1")
	}
}

func TestDetectCandidatesValidates(t *testing.T) {
	s := series.FromString("abcabc")
	if _, err := detectCandidates(s, 0, 0); err == nil {
		t.Fatal("ψ=0: want error")
	}
	if _, err := detectCandidates(s, 1.2, 0); err == nil {
		t.Fatal("ψ>1: want error")
	}
	if _, err := detectCandidates(s, 0.5, 10); err == nil {
		t.Fatal("maxPeriod ≥ n: want error")
	}
}

func TestDetectCandidatesBestSymbolCounts(t *testing.T) {
	s := series.FromString("ababababab")
	cands, err := detectCandidates(s, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.Period == 2 {
			// a matches at i = 0,2,4,6 and b at i = 1,3,5,7: 4 each.
			if c.MatchCount != 4 {
				t.Fatalf("lag-2 best count %d, want 4", c.MatchCount)
			}
			return
		}
	}
	t.Fatalf("period 2 not a candidate: %v", cands)
}

func TestDetectCandidatesSupersetProperty(t *testing.T) {
	f := func(seed int64, thr uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(150) + 20
		idx := make([]uint16, n)
		for i := range idx {
			idx[i] = uint16(rng.Intn(3))
		}
		s := series.FromIndices(alphabet.Letters(3), idx)
		psi := float64(thr%99+1) / 100
		cands, err := detectCandidates(s, psi, 0)
		if err != nil {
			return false
		}
		inCands := map[int]bool{}
		for _, c := range cands {
			inCands[c.Period] = true
		}
		res, err := mine(s, Options{Threshold: psi, Engine: EngineBitset, MaxPatternPeriod: -1})
		if err != nil {
			return false
		}
		for _, p := range res.Periods {
			if !inCands[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
