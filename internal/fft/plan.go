// Plan-based FFT engine. A Plan precomputes, for one power-of-two size,
// everything the transform would otherwise recompute per call — the
// bit-reversal permutation and per-stage twiddle-factor tables (each root
// evaluated directly with math.Cos/Sin rather than the error-accumulating
// w *= wStep recurrence) — and owns a pool of reusable scratch buffers, so
// the autocorrelation entry points are allocation-free after warm-up. There
// is one network per direction (dif forward, dit inverse). Large transforms
// optionally split each stage's independent butterflies across worker
// goroutines; every partitioning performs the identical floating-point
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
	half     *Plan        // plan for the half-size transforms of the real-input kernel
	split    []complex128 // split[r] = twf[n/2+rev(r)]: the real split's twiddles in slot order
}

// halfPlan returns (building on first use) the plan for the half-size complex
// transforms behind the real-input kernel, and the kernel's split twiddles.
func (p *Plan) halfPlan() *Plan {
	p.halfOnce.Do(func() {
		h := p.n / 2
		p.half = NewPlan(h)
		p.split = make([]complex128, h)
		shift := uint(64 - log2(h))
		for r := range p.split {
			p.split[r] = p.twf[h+int(reverse64(uint64(r))>>shift)]
		}
	})
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

// Transform computes the natural-order DFT of x, forward (dif, then the
// bit-reversal permutation) or inverse (the permutation, then dit), with the
// given worker count. The output is bit-identical for every worker count:
// partitioning never reorders the operations applied to an element.
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
	workers = p.fit(workers)
	if !inverse {
		p.dif(x, n, workers)
		p.permute(x, workers)
		return
	}
	p.permute(x, workers)
	p.dit(x, workers)
	inv := 1 / float64(n)
	for i := range x {
		x[i] = complex(real(x[i])*inv, imag(x[i])*inv)
	}
}

// fit rounds workers down to a power of two, so chunks stay aligned, or to 1
// when chunks would fall below minParallelChunk.
func (p *Plan) fit(workers int) int {
	if workers <= 1 || p.n/workers < minParallelChunk {
		return 1
	}
	for !IsPow2(workers) {
		workers--
	}
	return workers
}

// permute applies the bit-reversal permutation, its disjoint pairs split
// evenly across workers.
func (p *Plan) permute(x []complex128, workers int) {
	if workers == 1 {
		applySwaps(x, p.swaps)
		return
	}
	pairs := len(p.swaps) / 2
	parallelRange(workers, func(w int) {
		applySwaps(x, p.swaps[2*(pairs*w/workers):2*(pairs*(w+1)/workers)])
	})
}

// applySwaps performs the bit-reversal permutation from a flattened pair list.
//
//opvet:noalloc
func applySwaps(x []complex128, swaps []int32) {
	for i := 0; i < len(swaps); i += 2 {
		a, b := swaps[i], swaps[i+1]
		x[a], x[b] = x[b], x[a]
	}
}

// dif runs the forward decimation-in-frequency stages of sizes top..2 over
// each size-top block of x: natural-order input, bit-reversed output. The
// block kernel, whose packing runs the first stage, passes top = Size/2.
// With several workers it runs dit's phases in reverse: stages above a
// chunk (top ≥ Size/2 ≥ chunk) by flat index, then each worker's chunk.
func (p *Plan) dif(x []complex128, top, workers int) {
	obs.FFT().KernelRadix2.Inc()
	if workers == 1 {
		difStages(x, p.twf, 0, p.n, top)
		return
	}
	chunk := p.n / workers
	for size := top; size > chunk; size >>= 1 {
		flatStage(x, p.twf[size/2:size], workers, difButterflies)
	}
	parallelRange(workers, func(w int) {
		difStages(x, p.twf, w*chunk, (w+1)*chunk, chunk)
	})
}

// dit runs the inverse decimation-in-time network over x: bit-reversed
// input, natural-order output, unscaled. With several workers, the stages
// inside a chunk run on each worker's own chunk, then the rest by flat index.
func (p *Plan) dit(x []complex128, workers int) {
	obs.FFT().KernelRadix2.Inc()
	if workers == 1 {
		runStages(x, p.twi, 0, p.n, p.n)
		return
	}
	chunk := p.n / workers
	parallelRange(workers, func(w int) {
		runStages(x, p.twi, w*chunk, (w+1)*chunk, chunk)
	})
	for size := 2 * chunk; size <= p.n; size <<= 1 {
		flatStage(x, p.twi[size/2:size], workers, butterflies)
	}
}

// flatStage runs one stage with twiddles t, its butterflies split across
// workers by flat index. per divides half = len(t) (both are powers of two
// with per ≤ half/2), so each worker's range lies in one block.
func flatStage(x, t []complex128, workers int, stage func(blk, t []complex128, k0, k1 int)) {
	half := len(t)
	per := len(x) / 2 / workers
	parallelRange(workers, func(w int) {
		b := w * per
		blk := b / half
		k0 := b - blk*half
		stage(x[2*blk*half:2*(blk+1)*half], t, k0, k0+per)
	})
}

// difStages runs the decimation-in-frequency stages of sizes maxSize..2 over
// x[lo:hi), an aligned multiple of maxSize: fused in pairs from the top, an
// odd one out alone at size 8, and sizes 4 and 2 as one radix-4 pass whose
// twiddle, −i, needs no multiplication. As in runStages, fusing changes no
// floating-point operation.
//
//opvet:noalloc
func difStages(x []complex128, tw []complex128, lo, hi, maxSize int) {
	if maxSize < 4 {
		for i := lo; maxSize == 2 && i < hi; i += 2 {
			a, b := x[i], x[i+1]
			x[i], x[i+1] = a+b, a-b
		}
		return
	}
	size := maxSize
	for ; size >= 16; size >>= 2 {
		difStagePair(x, tw, lo, hi, size>>1)
	}
	if size == 8 {
		for start := lo; start < hi; start += 8 {
			difButterflies(x[start:start+8], tw[4:8], 0, 4)
		}
	}
	for i := lo; i < hi; i += 4 {
		a, b, c, d := x[i], x[i+1], x[i+2], x[i+3]
		t0, t2 := a+c, a-c
		t1, bd := b+d, b-d
		t3 := complex(imag(bd), -real(bd)) // −i·(b−d)
		x[i], x[i+1] = t0+t1, t0-t1
		x[i+2], x[i+3] = t2+t3, t2-t3
	}
}

// difStagePair applies the decimation-in-frequency stages of size 2s and s
// in one pass, the mirror of fusedStagePair.
//
//opvet:noalloc
func difStagePair(x []complex128, tw []complex128, lo, hi, s int) {
	q := s >> 1         // half of the second stage
	tA := tw[q : 2*q]   // twiddles of the size-s stage
	tB := tw[2*q : 4*q] // twiddles of the size-2s stage
	for start := lo; start < hi; start += 4 * q {
		x0 := x[start : start+q]
		x1 := x[start+q : start+2*q]
		x2 := x[start+2*q : start+3*q]
		x3 := x[start+3*q : start+4*q]
		for k := 0; k < q; k++ {
			a0, a1, a2, a3 := x0[k], x1[k], x2[k], x3[k]
			u0, u2 := a0+a2, (a0-a2)*tB[k]
			u1, u3 := a1+a3, (a1-a3)*tB[k+q]
			wa := tA[k]
			x0[k], x1[k] = u0+u1, (u0-u1)*wa
			x2[k], x3[k] = u2+u3, (u2-u3)*wa
		}
	}
}

// difButterflies applies decimation-in-frequency butterflies k0..k1 of one
// block: blk[k], blk[k+half] ← blk[k] + blk[k+half], (blk[k] − blk[k+half])·t[k].
//
//opvet:noalloc
func difButterflies(blk []complex128, t []complex128, k0, k1 int) {
	half := len(t)
	hi := blk[half:]
	for k := k0; k < k1; k++ {
		a, b := blk[k], hi[k]
		blk[k] = a + b
		hi[k] = (a - b) * t[k]
	}
}

// runStages runs the inverse decimation-in-time stages of sizes 2..maxSize
// over x[lo:hi), an aligned multiple of maxSize. Stages 2 and 4 are fused
// into one radix-4 pass (twiddles ±1, ±i — no multiplications), and later
// stages in pairs that keep the intermediate stage in registers, halving
// the passes over memory. Every twiddle a fused pass multiplies by is the
// table entry the unfused stage reads, so fusing changes no floating-point
// operation: any stage partitioning produces bit-identical output.
//
//opvet:noalloc
func runStages(x []complex128, tw []complex128, lo, hi, maxSize int) {
	if maxSize < 4 {
		// maxSize == 2: a single no-twiddle stage.
		for i := lo; i < hi; i += 2 {
			a, b := x[i], x[i+1]
			x[i], x[i+1] = a+b, a-b
		}
		return
	}
	for i := lo; i < hi; i += 4 {
		a, b, c, d := x[i], x[i+1], x[i+2], x[i+3]
		t0, t1 := a+b, a-b
		t2, t3 := c+d, c-d
		r3 := complex(-imag(t3), real(t3)) // i·t3, the stage-4 twiddle
		x[i], x[i+2] = t0+t2, t0-t2
		x[i+1], x[i+3] = t1+r3, t1-r3
	}
	for size := 8; size <= maxSize; size <<= 2 {
		if 2*size <= maxSize {
			fusedStagePair(x, tw, lo, hi, size)
			continue
		}
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
