package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"periodica/internal/alphabet"
	"periodica/internal/series"
)

func randomSeries(seed int64, n, sigma int) *series.Series {
	rng := rand.New(rand.NewSource(seed))
	idx := make([]uint16, n)
	for i := range idx {
		idx[i] = uint16(rng.Intn(sigma))
	}
	return series.FromIndices(alphabet.Letters(sigma), idx)
}

func TestParallelValidates(t *testing.T) {
	s := randomSeries(53, 20, 3)
	if _, err := MineWorkers(context.Background(), s, Options{Threshold: 0.5, MaxPeriod: 100}, 2); err == nil {
		t.Fatal("maxPeriod > n: want error")
	}
}

func TestMineParallelMatchesSerial(t *testing.T) {
	for _, seed := range []int64{55, 56} {
		s := randomSeries(seed, 1200, 5)
		for _, psi := range []float64{0.3, 0.7} {
			want, err := mine(s, Options{Threshold: psi})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 1, 4} {
				got, err := MineWorkers(context.Background(), s, Options{Threshold: psi}, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Periodicities, want.Periodicities) {
					t.Fatalf("seed=%d ψ=%v workers=%d: periodicities differ", seed, psi, workers)
				}
				if !reflect.DeepEqual(got.Patterns, want.Patterns) {
					t.Fatalf("seed=%d ψ=%v workers=%d: patterns differ", seed, psi, workers)
				}
				if !reflect.DeepEqual(got.Periods, want.Periods) {
					t.Fatalf("seed=%d ψ=%v workers=%d: periods differ", seed, psi, workers)
				}
			}
		}
	}
}

func TestMineParallelValidates(t *testing.T) {
	s := randomSeries(57, 50, 3)
	if _, err := MineWorkers(context.Background(), s, Options{Threshold: 0}, 2); err == nil {
		t.Fatal("ψ=0: want error")
	}
}

// TestParallelMoreWorkersThanPeriods: a worker count far above both the
// period count and GOMAXPROCS is capped and changes nothing.
func TestParallelMoreWorkersThanPeriods(t *testing.T) {
	s := randomSeries(54, 30, 3)
	opt := Options{Threshold: 0.3, MaxPeriod: 5}
	got, err := MineWorkers(context.Background(), s, opt, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mine(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("worker clamp broke equivalence")
	}
}
