package sketch

import (
	"testing"

	"periodica/internal/series"
)

func TestSignValuesArePlusMinusOne(t *testing.T) {
	h := NewSign(20, 1)
	plus, minus := 0, 0
	for k := 0; k < 20; k++ {
		switch h.vals[k] {
		case 1:
			plus++
		case -1:
			minus++
		default:
			t.Fatalf("sign of %d = %v, want ±1", k, h.vals[k])
		}
	}
	if plus == 0 || minus == 0 {
		t.Fatalf("degenerate sign hash: %d plus, %d minus", plus, minus)
	}
}

func TestSignDeterministicPerSeed(t *testing.T) {
	a, b := NewSign(10, 7), NewSign(10, 7)
	for k := 0; k < 10; k++ {
		if a.vals[k] != b.vals[k] {
			t.Fatal("same seed produced different hashes")
		}
	}
}

func TestProject(t *testing.T) {
	s := series.FromString("abab")
	h := NewSign(2, 3)
	v := h.Project(s)
	if len(v) != 4 {
		t.Fatalf("len = %d", len(v))
	}
	if v[0] != v[2] || v[1] != v[3] || v[0] != h.vals[0] {
		t.Fatalf("projection inconsistent: %v", v)
	}
}

func TestNewSignPanicsOnBadSigma(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSign(0): want panic")
		}
	}()
	NewSign(0, 1)
}
