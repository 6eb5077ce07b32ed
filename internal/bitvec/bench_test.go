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

// BenchmarkAddLagPhases times the phase kernel on a random vector of density
// 0.3, without a bound and under the ψ = 0.7 bar, which no phase of such a
// vector reaches, so the bounded rows stop early.
func BenchmarkAddLagPhases(b *testing.B) {
	const n = 1 << 16
	v := benchVector(n)
	for _, p := range []int{7, 24, 400} {
		counts := make([]int, p)
		q := n / p
		bar := [2]int{(7*q + 9) / 10, (7*(q-1) + 9) / 10}
		for _, c := range []struct {
			name string
			need [2]int
		}{{"none", [2]int{}}, {"psi=0.7", bar}} {
			b.Run(fmt.Sprintf("p=%d/bound=%s", p, c.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					clear(counts)
					v.AddLagPhases(p, counts, c.need)
				}
			})
		}
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
