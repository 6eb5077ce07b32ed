// Plan-based FFT engine. A Plan precomputes, for one power-of-two size,
// everything the transform would otherwise recompute per call — the
// bit-reversal permutation and per-stage twiddle-factor tables (each root
// evaluated directly with math.Cos/Sin rather than the error-accumulating
// w *= wStep recurrence) — and owns a pool of reusable scratch buffers, so
// the autocorrelation entry points are allocation-free after warm-up. Large
// transforms optionally split each stage's independent butterflies across
// worker goroutines; every partitioning performs the identical floating-point
// operations per element, so parallel and serial outputs are bit-identical.
package fft

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"periodica/internal/obs"
)

// ParallelThreshold is the transform length at or above which Forward and
// Inverse split butterfly stages across GOMAXPROCS goroutines. Lengths below
// it run serially; set GOMAXPROCS=1 to force serial transforms everywhere.
const ParallelThreshold = 1 << 16

// minParallelChunk bounds the per-worker chunk of the contiguous early
// stages; smaller chunks spend more time at barriers than in butterflies.
const minParallelChunk = 1 << 12

// Plan holds the precomputed tables for transforms of one fixed power-of-two
// size. A plan's tables are immutable after construction and the plan is safe
// for concurrent use: the transform methods touch only the caller's slice and
// pooled scratch, and the half-size plan behind the real-input kernel is
// built once, on first use, and immutable afterwards.
type Plan struct {
	n     int
	swaps []int32      // flattened (i, j) pairs of the bit-reversal permutation, i < j
	twf   []complex128 // twf[half+k] = exp(-2πi·k/size), size = 2·half (forward)
	twi   []complex128 // conjugate table for inverse transforms
	pool  sync.Pool    // scratch []complex128 of length n

	halfOnce sync.Once
	half     *Plan // plan for the half-size transforms of the real-input kernel
}

// halfPlan returns (building on first use) the plan for the half-size complex
// transforms behind the real-input kernel.
func (p *Plan) halfPlan() *Plan {
	p.halfOnce.Do(func() { p.half = NewPlan(p.n / 2) })
	return p.half
}

// NewPlan builds a plan for transforms of length n (a power of two).
// Most callers should use PlanFor, which caches plans by size.
func NewPlan(n int) *Plan {
	if !IsPow2(n) {
		panic(fmt.Sprintf("fft: plan length %d is not a power of two", n))
	}
	p := &Plan{n: n}
	// The pool stores *[]complex128: putting a bare slice would box its
	// header into an interface and allocate on every release.
	p.pool.New = func() any { b := make([]complex128, n); return &b }
	if n == 1 {
		return p
	}
	shift := uint(64 - log2(n))
	for i := 0; i < n; i++ {
		j := int(reverse64(uint64(i)) >> shift)
		if j > i {
			p.swaps = append(p.swaps, int32(i), int32(j))
		}
	}
	p.twf = make([]complex128, n)
	p.twi = make([]complex128, n)
	for half := 1; half < n; half <<= 1 {
		size := 2 * half
		for k := 0; k < half; k++ {
			ang := 2 * math.Pi * float64(k) / float64(size)
			s, c := math.Sincos(ang)
			p.twf[half+k] = complex(c, -s)
			p.twi[half+k] = complex(c, s)
		}
	}
	return p
}

// reverse64 mirrors the 64-bit word; split out so NewPlan has no direct
// dependency on the transform body it replaces.
func reverse64(v uint64) uint64 {
	v = v>>32 | v<<32
	v = v>>16&0x0000FFFF0000FFFF | v&0x0000FFFF0000FFFF<<16
	v = v>>8&0x00FF00FF00FF00FF | v&0x00FF00FF00FF00FF<<8
	v = v>>4&0x0F0F0F0F0F0F0F0F | v&0x0F0F0F0F0F0F0F0F<<4
	v = v>>2&0x3333333333333333 | v&0x3333333333333333<<2
	v = v>>1&0x5555555555555555 | v&0x5555555555555555<<1
	return v
}

// Size returns the transform length the plan was built for.
func (p *Plan) Size() int { return p.n }

// PlanCache maps transform sizes to plans. A mutex (not sync.Map)
// serializes construction so two goroutines never build the same multi-MB
// table twice. Plans are immutable after construction (scratch lives in a
// pool), so a plan may be shared freely between caches. The zero value is
// not usable; call NewPlanCache.
type PlanCache struct {
	mu    sync.Mutex
	plans map[int]*Plan
}

// NewPlanCache returns an empty plan cache. Mining sessions hold a cache so
// plan reuse is an injection point rather than ambient global state; most
// sessions share SharedPlans, while tests and short-lived tools may isolate
// themselves with a fresh cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{plans: map[int]*Plan{}}
}

// For returns the cached plan for transforms of length n, building it on
// first use. n must be a power of two.
func (c *PlanCache) For(n int) *Plan {
	if !IsPow2(n) {
		// Panic before taking the lock so a recovered caller cannot leave
		// the cache poisoned.
		panic(fmt.Sprintf("fft: plan length %d is not a power of two", n))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.plans[n]
	if p == nil {
		p = NewPlan(n)
		c.plans[n] = p
	}
	return p
}

// sharedPlans is the process-wide cache behind PlanFor.
var sharedPlans = NewPlanCache()

// SharedPlans returns the process-wide plan cache.
func SharedPlans() *PlanCache { return sharedPlans }

// PlanFor returns the shared cached plan for transforms of length n,
// building it on first use. n must be a power of two.
func PlanFor(n int) *Plan { return sharedPlans.For(n) }

// scratch borrows a length-n buffer from the plan's pool; release returns it.
// A borrow left unreleased on some path makes that path allocate, which the
// zero-alloc tests (TestPlanZeroAllocAfterWarmup) catch.
func (p *Plan) scratch() *[]complex128 {
	return p.pool.Get().(*[]complex128)
}

func (p *Plan) release(buf *[]complex128) { p.pool.Put(buf) }

// autoWorkers picks the worker count for one transform: GOMAXPROCS for
// lengths at or above the parallel threshold, 1 below it.
func (p *Plan) autoWorkers() int {
	if p.n >= ParallelThreshold {
		return runtime.GOMAXPROCS(0)
	}
	return 1
}

// Forward computes the in-place forward DFT of x. len(x) must equal Size.
// Transforms of length ≥ ParallelThreshold use GOMAXPROCS workers; use
// Transform for explicit control.
func (p *Plan) Forward(x []complex128) { p.Transform(x, false, p.autoWorkers()) }

// Inverse computes the in-place inverse DFT of x, including the 1/n scaling.
func (p *Plan) Inverse(x []complex128) { p.Transform(x, true, p.autoWorkers()) }

// Transform runs the planned butterfly network over x, forward or inverse,
// with the given worker count. The output is bit-identical for every worker
// count: partitioning never reorders the operations applied to an element.
//
//opvet:noalloc
func (p *Plan) Transform(x []complex128, inverse bool, workers int) {
	n := p.n
	if len(x) != n {
		panic(fmt.Sprintf("fft: plan size %d, input length %d", n, len(x)))
	}
	if n == 1 {
		return
	}
	tw := p.twf
	if inverse {
		tw = p.twi
	}
	obs.FFT().KernelRadix2.Inc()
	if workers > 1 && n/workers >= minParallelChunk {
		p.transformParallel(x, tw, workers)
	} else {
		applySwaps(x, p.swaps)
		runStages(x, tw, 0, n, n)
	}
	if inverse {
		inv := 1 / float64(n)
		for i := range x {
			x[i] = complex(real(x[i])*inv, imag(x[i])*inv)
		}
	}
}

// applySwaps performs the bit-reversal permutation from a flattened pair
// list. The pairs are disjoint transpositions, so any partition of the list
// can run concurrently without conflicting writes.
//
//opvet:noalloc
func applySwaps(x []complex128, swaps []int32) {
	for i := 0; i < len(swaps); i += 2 {
		a, b := swaps[i], swaps[i+1]
		x[a], x[b] = x[b], x[a]
	}
}

// runStages runs the butterfly stages of sizes 2..maxSize over x[lo:hi),
// which must be an aligned multiple of maxSize. Stages 2 and 4 are fused
// into one radix-4 pass (their twiddles are ±1, ±i — no multiplications),
// and later stages are fused in pairs that keep the intermediate stage in
// registers, halving the passes over memory. Every twiddle a fused pass
// multiplies by is the same table entry the unfused stage would read, so
// fusing changes no floating-point operation: any stage partitioning
// produces bit-identical output.
//
//opvet:noalloc
func runStages(x []complex128, tw []complex128, lo, hi, maxSize int) {
	if !stageHead(x, tw, lo, hi, maxSize) {
		return
	}
	for size := 8; size <= maxSize; size <<= 2 {
		stageGroup(x, tw, lo, hi, maxSize, size)
	}
}

// stageHead runs the first butterfly stages — the fused radix-4 pass when
// maxSize ≥ 4 (its twiddles are ±1, ±i — no multiplications), or the single
// no-twiddle size-2 stage when maxSize == 2. It reports whether later stages
// remain (false exactly when maxSize == 2). Split from runStages so
// transformPair can interleave two buffers at stage granularity.
//
//opvet:noalloc
func stageHead(x []complex128, tw []complex128, lo, hi, maxSize int) bool {
	if maxSize < 4 {
		// maxSize == 2: a single no-twiddle stage.
		for i := lo; i < hi; i += 2 {
			a, b := x[i], x[i+1]
			x[i], x[i+1] = a+b, a-b
		}
		return false
	}
	// tw[3] = exp(∓2πi/4) = ∓i distinguishes forward from inverse.
	inverse := imag(tw[3]) > 0
	for i := lo; i < hi; i += 4 {
		a, b, c, d := x[i], x[i+1], x[i+2], x[i+3]
		t0, t1 := a+b, a-b
		t2, t3 := c+d, c-d
		// Stage-4 twiddle for the odd lane is ∓i; multiply without a
		// complex multiplication.
		var r3 complex128
		if inverse {
			r3 = complex(-imag(t3), real(t3)) // i·t3
		} else {
			r3 = complex(imag(t3), -real(t3)) // −i·t3
		}
		x[i], x[i+2] = t0+t2, t0-t2
		x[i+1], x[i+3] = t1+r3, t1-r3
	}
	return true
}

// stageGroup runs the stage of the given size — fused with the next stage
// when both fit under maxSize — matching one iteration of runStages' loop.
//
//opvet:noalloc
func stageGroup(x []complex128, tw []complex128, lo, hi, maxSize, size int) {
	if 2*size <= maxSize {
		fusedStagePair(x, tw, lo, hi, size)
	} else {
		half := size >> 1
		t := tw[half:size]
		for start := lo; start < hi; start += size {
			butterflies(x[start:start+size], t, 0, half)
		}
	}
}

// fusedStagePair applies the stages of size s and 2s in one pass: the four
// quarters of each size-2s block travel through both butterfly levels while
// their intermediates stay in registers.
//
//opvet:noalloc
func fusedStagePair(x []complex128, tw []complex128, lo, hi, s int) {
	q := s >> 1         // half of the first stage
	tA := tw[q : 2*q]   // twiddles of the size-s stage
	tB := tw[2*q : 4*q] // twiddles of the size-2s stage
	for start := lo; start < hi; start += 4 * q {
		x0 := x[start : start+q]
		x1 := x[start+q : start+2*q]
		x2 := x[start+2*q : start+3*q]
		x3 := x[start+3*q : start+4*q]
		for k := 0; k < q; k++ {
			wa := tA[k]
			a0, a1 := x0[k], x2[k]
			b0 := wa * x1[k]
			b1 := wa * x3[k]
			u0, u1 := a0+b0, a0-b0
			u2, u3 := a1+b1, a1-b1
			c0 := tB[k] * u2
			c1 := tB[k+q] * u3
			x0[k] = u0 + c0
			x2[k] = u0 - c0
			x1[k] = u1 + c1
			x3[k] = u1 - c1
		}
	}
}

// butterflies applies butterflies k0..k1 of one size-len(blk) block:
// blk[k], blk[k+half] ← blk[k] ± w_k·blk[k+half], with w_k = t[k].
//
//opvet:noalloc
func butterflies(blk []complex128, t []complex128, k0, k1 int) {
	half := len(t)
	hi := blk[half:]
	for k := k0; k < k1; k++ {
		a := blk[k]
		b := hi[k] * t[k]
		blk[k] = a + b
		hi[k] = a - b
	}
}

// transformParallel splits the network across workers: the swap list and the
// early stages (which stay inside aligned chunks) are partitioned by chunk,
// then each remaining stage's butterflies are split by flat index, with a
// barrier between stages. Every element sees the same operations in the same
// order as the serial path.
func (p *Plan) transformParallel(x []complex128, tw []complex128, workers int) {
	n := p.n
	// Round workers down to a power of two so chunks stay aligned, and keep
	// chunks at or above the minimum.
	for !IsPow2(workers) {
		workers--
	}
	for workers > 1 && n/workers < minParallelChunk {
		workers >>= 1
	}
	if workers <= 1 {
		applySwaps(x, p.swaps)
		runStages(x, tw, 0, n, n)
		return
	}
	chunk := n / workers

	// Phase 1: bit-reversal. The pair list is split evenly; pairs are
	// disjoint, so no two workers touch the same element.
	pairs := len(p.swaps) / 2
	parallelRange(workers, func(w int) {
		lo := 2 * (pairs * w / workers)
		hi := 2 * (pairs * (w + 1) / workers)
		applySwaps(x, p.swaps[lo:hi])
	})

	// Phase 2: stages with size ≤ chunk act entirely within one aligned
	// chunk; each worker runs them on its own chunk with no communication.
	parallelRange(workers, func(w int) {
		runStages(x, tw, w*chunk, (w+1)*chunk, chunk)
	})

	// Phase 3: the remaining log₂(workers) stages, split by flat butterfly
	// index. per divides half (both are powers of two with per ≤ half/2),
	// so each worker's range is a contiguous k-interval of one block.
	per := n / 2 / workers
	for size := chunk << 1; size <= n; size <<= 1 {
		half := size >> 1
		t := tw[half:size]
		parallelRange(workers, func(w int) {
			b := w * per
			blk := b / half
			k0 := b - blk*half
			butterflies(x[blk*size:blk*size+size], t, k0, k0+per)
		})
	}
}

// parallelRange runs f(0..workers-1) on separate goroutines and waits.
func parallelRange(workers int, f func(w int)) {
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			f(w)
		}(w)
	}
	wg.Wait()
}

// transformPair transforms two buffers with a shared setup. The serial path
// interleaves the buffers stage by stage, so each twiddle block is walked
// once while its entries are hot; the parallel path splits each transform's
// butterflies across the workers. Either way each buffer sees exactly the
// operations of Transform, so the output is bit-identical to it.
//
//opvet:noalloc
func (p *Plan) transformPair(z1, z2 []complex128, inverse bool, workers int) {
	if workers > 1 && p.n/workers >= minParallelChunk {
		p.Transform(z1, inverse, workers)
		p.Transform(z2, inverse, workers)
		return
	}
	obs.FFT().KernelBatch.Inc()
	n := p.n
	tw := p.twf
	if inverse {
		tw = p.twi
	}
	// Each buffer's swap pass runs right before its head stages, while the
	// buffer is still in cache.
	applySwaps(z1, p.swaps)
	stageHead(z1, tw, 0, n, n)
	applySwaps(z2, p.swaps)
	stageHead(z2, tw, 0, n, n)
	for size := 8; size <= n; size <<= 2 {
		stageGroup(z1, tw, 0, n, n, size)
		stageGroup(z2, tw, 0, n, n, size)
	}
	if inverse {
		inv := 1 / float64(n)
		for i := range z1 {
			z1[i] = complex(real(z1[i])*inv, imag(z1[i])*inv)
		}
		for i := range z2 {
			z2[i] = complex(real(z2[i])*inv, imag(z2[i])*inv)
		}
	}
}
