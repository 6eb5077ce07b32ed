// Package fft implements the fast Fourier transform and the autocorrelation
// counts the miner builds on. The transform is an iterative in-place radix-2
// FFT over []complex128 — decimation in frequency forward, decimation in
// time inverse — executed through cached per-size plans (see plan.go); the
// block kernel over the real-input transform (see realfft.go) runs the two
// back to back without permuting and turns them into integer lag-match
// counts of real sequences, which is how the paper evaluates its modified
// convolution: in O(n log n) for every lag, or O(n log L) for the lags up to L.
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

// minBlock is the floor on the block kernel's block length B; the kernel
// needs B ≥ 2 for its packed layout. Timed over a 2^16-sample indicator with
// a two-lag band (BenchmarkBlockKernel), the cost is least at B = 8 and rises
// with log B above it (B = 16 costs 5–8% more, B = 64 about 15% more), while
// below it the per-block overhead of twice the blocks wins.
const minBlock = 1 << 3

// BandSize returns the plan size 2B the block kernel (Plan.AutocorrelateCountsInto)
// uses for the lags 0..maxLag of n samples: B = NextPow2(maxLag), raised to
// minBlock, and never above the one block that holds the whole series.
func BandSize(n, maxLag int) int {
	return 2 * NextPow2(min(max(maxLag, minBlock), n))
}

// AutocorrelateCounts returns r[p] = Σ_i x[i]·x[i+p] for p = 0..len(x)-1,
// rounded to the nearest integer. It is intended for integer-valued vectors
// such as 0/1 indicators, where r[p] is the exact number of lag-p matches;
// rounding removes FFT round-off, whose error stays far below 0.5 for any
// series that fits in memory. It runs the block kernel on the plan BandSize
// picks for every lag.
func AutocorrelateCounts(x []float64) []int64 {
	if len(x) == 0 {
		return nil
	}
	return PlanFor(BandSize(len(x), len(x)-1)).AutocorrelateCounts(x)
}
