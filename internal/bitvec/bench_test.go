package bitvec

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchVector(n int) *Vector {
	rng := rand.New(rand.NewSource(1))
	return randomVector(rng, n, 0.3)
}

func BenchmarkAndShiftRight(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16, 1 << 20} {
		v := benchVector(n)
		dst := New(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dst = v.AndShiftRight(i%n, dst)
			}
		})
	}
}

func BenchmarkAddLagPhases(b *testing.B) {
	v := benchVector(1 << 16)
	for _, p := range []int{7, 24, 400} {
		counts := make([]int, p)
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v.AddLagPhases(p, counts)
			}
		})
	}
}

func BenchmarkCount(b *testing.B) {
	v := benchVector(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Count()
	}
}

func BenchmarkForEach(b *testing.B) {
	v := benchVector(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := 0
		v.ForEach(func(j int) { sum += j })
	}
}
