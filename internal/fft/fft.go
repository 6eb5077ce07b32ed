// Package fft implements the fast Fourier transform and the convolution and
// correlation primitives the miner builds on. The transform is an iterative
// in-place radix-2 decimation-in-time FFT over []complex128, executed through
// cached per-size plans (see plan.go) that precompute twiddle tables and the
// bit-reversal permutation; helpers cover linear convolution and, through the
// real-input kernel (see realfft.go), correlation and autocorrelation of real
// sequences, which is how the paper evaluates its modified convolution in
// O(n log n).
package fft

import (
	"fmt"
	"math"
	"math/bits"
)

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

// transformRecurrence is the pre-plan radix-2 network that regenerates each
// stage's twiddles with the w *= wStep recurrence. It is retained as the
// accuracy and performance baseline the plan is tested against (the
// recurrence accumulates rounding error with every butterfly of a stage,
// the tables do not).
func transformRecurrence(x []complex128, inverse bool) {
	n := len(x)
	if !IsPow2(n) {
		panic(fmt.Sprintf("fft: length %d is not a power of two", n))
	}
	// Bit-reversal permutation.
	shift := uint(64 - bits.Len(uint(n-1)))
	if n == 1 {
		return
	}
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		ang := 2 * math.Pi / float64(size)
		if !inverse {
			ang = -ang
		}
		wStep := complex(math.Cos(ang), math.Sin(ang))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			half := size / 2
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
	if inverse {
		inv := 1 / float64(n)
		for i := range x {
			x[i] = complex(real(x[i])*inv, imag(x[i])*inv)
		}
	}
}

// Convolve returns the linear convolution of real sequences a and b:
// out[i] = Σ_j a[j]·b[i−j], with len(out) = len(a)+len(b)−1. Either input may
// be empty, in which case the result is nil.
func Convolve(a, b []float64) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	outLen := len(a) + len(b) - 1
	m := NextPow2(outLen)
	p := PlanFor(m)
	fap, fbp := p.scratch(), p.scratch()
	fa, fb := *fap, *fbp
	loadPadded(fa, a)
	loadPadded(fb, b)
	p.Forward(fa)
	p.Forward(fb)
	for i := range fa {
		fa[i] *= fb[i]
	}
	p.Inverse(fa)
	out := make([]float64, outLen)
	for i := range out {
		out[i] = real(fa[i])
	}
	p.release(fap)
	p.release(fbp)
	return out
}

// CrossCorrelate returns r[p] = Σ_i a[i]·b[i+p] for p = 0..len(b)-1, treating
// out-of-range terms as zero. With a == b (the same slice) this is the
// (non-circular) autocorrelation used to count lag-p symbol matches, and the
// plan's self-correlation path saves one forward transform.
func CrossCorrelate(a, b []float64) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	return PlanFor(NextPow2(len(a)+len(b))).CrossCorrelate(a, b)
}

// AutocorrelateCounts returns r[p] = Σ_i x[i]·x[i+p] for p = 0..len(x)-1,
// rounded to the nearest integer. It is intended for 0/1 indicator vectors,
// where r[p] is the exact number of lag-p matches; rounding removes FFT
// round-off (the error is far below 0.5 for any series that fits in memory,
// and ValidateCountPrecision makes the bound checkable). It costs one
// half-size forward and one half-size inverse transform through the
// real-input kernel.
func AutocorrelateCounts(x []float64) []int64 {
	if len(x) == 0 {
		return nil
	}
	return PlanFor(NextPow2(2 * len(x))).AutocorrelateCounts(x)
}

// ValidateCountPrecision reports the worst absolute deviation from an integer
// across the autocorrelation of x. Callers can assert it is < 0.5 to confirm
// the rounding in AutocorrelateCounts is sound at a given size.
func ValidateCountPrecision(x []float64) float64 {
	r := CrossCorrelate(x, x)
	worst := 0.0
	for _, v := range r {
		d := math.Abs(v - math.Round(v))
		if d > worst {
			worst = d
		}
	}
	return worst
}
