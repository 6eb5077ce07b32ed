package fft

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

func benchData(n int) []complex128 {
	rng := rand.New(rand.NewSource(1))
	return randComplex(rng, n)
}

func BenchmarkForward(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 14, 1 << 18} {
		data := benchData(n)
		work := make([]complex128, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(work, data)
				Forward(work)
			}
		})
	}
}

// BenchmarkPlanForward compares the planned transform (cached tables,
// fused stage pairs) against the seed recurrence network at each size, and
// the parallel butterfly path against the serial one.
func BenchmarkPlanForward(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 14, 1 << 18, 1 << 20} {
		data := benchData(n)
		work := make([]complex128, n)
		p := PlanFor(n)
		b.Run(fmt.Sprintf("planned/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(work, data)
				p.Transform(work, false, 1)
			}
		})
		b.Run(fmt.Sprintf("unplanned/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(work, data)
				transformRecurrence(work, false)
			}
		})
		b.Run(fmt.Sprintf("parallel/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(work, data)
				p.Transform(work, false, runtime.GOMAXPROCS(0))
			}
		})
	}
}

// BenchmarkBlockKernel times the lag counts of one 2^16-sample indicator
// for a small lag band at each block size, against the one block that holds
// the series: the table minBlock is read from.
func BenchmarkBlockKernel(b *testing.B) {
	n := 1 << 16
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, n)
	for i := range x {
		if rng.Intn(4) == 0 {
			x[i] = 1
		}
	}
	out := make([]int64, 3)
	for blk := 2; blk <= n; blk *= 2 {
		p := PlanFor(2 * blk)
		b.Run(fmt.Sprintf("B=%d", blk), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.AutocorrelateCountsInto(x, out, 1)
			}
		})
	}
}

func BenchmarkAutocorrelateCounts(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16} {
		rng := rand.New(rand.NewSource(3))
		x := make([]float64, n)
		for i := range x {
			if rng.Intn(4) == 0 {
				x[i] = 1
			}
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				AutocorrelateCounts(x)
			}
		})
	}
}
