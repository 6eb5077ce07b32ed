package conv

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"periodica/internal/alphabet"
	"periodica/internal/exec"
	"periodica/internal/fft"
	"periodica/internal/series"
)

// TestBatchedCountsConcurrentStress hammers one plan cache with batched
// counts from many goroutines at once, across explicit worker counts
// {1, 2, GOMAXPROCS}, while another goroutine keeps looking up plans of
// assorted sizes, and asserts every result is bit-identical to the serial
// reference. The cache starts empty, so the first hammers race to build each
// plan and its half-size plan. Run under -race this exercises the
// mutex-guarded plan cache, the once-built half plan, the scratch pools'
// concurrent Get/Put traffic and, on the two-symbol series where spare
// workers split each transform, the parallel butterflies.
func TestBatchedCountsConcurrentStress(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	build := func(n, sigma int) *series.Series {
		idx := make([]uint16, n)
		for i := range idx {
			idx[i] = uint16(rng.Intn(sigma))
		}
		return series.FromIndices(alphabet.Letters(sigma), idx)
	}
	inputs := []*series.Series{build(3000, 7), build(8200, 2)}
	// Serial references, computed through the shared cache before the
	// hammers start.
	wants := make([][][]int64, len(inputs))
	for i, s := range inputs {
		wants[i] = LagMatchCounts(s)
	}

	plans := fft.NewPlanCache()
	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0)}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sizes := []int{64, 256, 1024, 4096, 8192, 1 << 15}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				plans.For(sizes[i%len(sizes)])
			}
		}
	}()

	const (
		hammers = 8
		rounds  = 6
	)
	var mu sync.Mutex
	var failed bool
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if !failed {
			failed = true
			t.Errorf(format, args...)
		}
	}
	var hwg sync.WaitGroup
	for g := 0; g < hammers; g++ {
		hwg.Add(1)
		go func(g int) {
			defer hwg.Done()
			for r := 0; r < rounds; r++ {
				in := (g + r) % len(inputs)
				workers := workerCounts[(g+r)%len(workerCounts)]
				got, err := LagMatchCountsExec(inputs[in], exec.New(exec.Config{Workers: workers}), workers, plans)
				if err != nil {
					fail("goroutine %d round %d: %v", g, r, err)
					return
				}
				want := wants[in]
				for k := range want {
					for p := range want[k] {
						if got[k][p] != want[k][p] {
							fail("goroutine %d round %d input %d workers=%d: counts[%d][%d] = %d, want %d",
								g, r, in, workers, k, p, got[k][p], want[k][p])
							return
						}
					}
				}
			}
		}(g)
	}
	hwg.Wait()
	close(stop)
	wg.Wait()
}
