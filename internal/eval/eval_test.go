package eval

import "testing"

func TestRankOfTrue(t *testing.T) {
	ranked := []int{13, 7, 50, 25}
	if got := RankOfTrue(ranked, 25); got != 3 {
		t.Fatalf("rank %d, want 3 (first multiple, 50)", got)
	}
	if got := RankOfTrue(ranked, 11); got != 0 {
		t.Fatalf("rank %d for absent period, want 0", got)
	}
}
