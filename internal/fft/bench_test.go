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

// BenchmarkPlanPairCounts measures the zero-alloc packed pair path, the unit
// of work the detection sweep schedules per symbol pair.
func BenchmarkPlanPairCounts(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 18} {
		rng := rand.New(rand.NewSource(9))
		x1 := make([]float64, n)
		x2 := make([]float64, n)
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				x1[i] = 1
			}
			if rng.Intn(4) == 0 {
				x2[i] = 1
			}
		}
		p := PlanFor(NextPow2(2 * n))
		out1 := make([]int64, n)
		out2 := make([]int64, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.AutocorrelateCountsPairInto(x1, x2, out1, out2, 1)
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
