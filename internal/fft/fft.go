// Package fft implements the fast Fourier transform and the autocorrelation
// counts the miner builds on. The transform is an iterative in-place radix-2
// decimation-in-time FFT over []complex128, executed through cached per-size
// plans (see plan.go) that precompute twiddle tables and the bit-reversal
// permutation; the real-input kernel (see realfft.go) turns it into integer
// lag-match counts of real sequences, which is how the paper evaluates its
// modified convolution in O(n log n).
package fft

import "math/bits"

// NextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << uint(bits.Len(uint(n-1)))
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Forward computes the in-place forward DFT of x. len(x) must be a power of
// two. It runs through the cached plan for len(x).
func Forward(x []complex128) { PlanFor(len(x)).Forward(x) }

// Inverse computes the in-place inverse DFT of x, including the 1/n scaling.
// len(x) must be a power of two.
func Inverse(x []complex128) { PlanFor(len(x)).Inverse(x) }

// AutocorrelateCounts returns r[p] = Σ_i x[i]·x[i+p] for p = 0..len(x)-1,
// rounded to the nearest integer. It is intended for integer-valued vectors
// such as 0/1 indicators, where r[p] is the exact number of lag-p matches;
// rounding removes FFT round-off, whose error stays far below 0.5 for any
// series that fits in memory. It costs one half-size forward and one
// half-size inverse transform through the real-input kernel.
func AutocorrelateCounts(x []float64) []int64 {
	if len(x) == 0 {
		return nil
	}
	return PlanFor(NextPow2(2 * len(x))).AutocorrelateCounts(x)
}
