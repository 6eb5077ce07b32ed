// Package eval scores a ranked candidate-period list against a known
// ground-truth period, with harmonic awareness: every multiple of the
// embedded period is a correct answer (the series repeats at 2P as surely
// as at P). Used by the quality experiment comparing the miner to the other
// detectors.
package eval

// RankOfTrue returns the 1-based position of the first multiple of
// truePeriod in a ranked candidate list, or 0 when absent.
func RankOfTrue(ranked []int, truePeriod int) int {
	for i, p := range ranked {
		if p > 0 && p%truePeriod == 0 {
			return i + 1
		}
	}
	return 0
}
