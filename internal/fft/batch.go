// Batched multi-buffer transforms. The detect stage runs σ same-size
// transforms (one per alphabet symbol); re-entering the plan per buffer
// walks the swap list and every twiddle block σ times from cold. The batch
// entry points run the whole set through one pass of the plan's setup: the
// serial path interleaves buffers at stage granularity, so each stage's
// twiddle block is loaded once and reused across all buffers while hot; the
// parallel path spreads whole buffers (and, when buffers outnumber workers,
// their butterfly ranges) across the worker budget. Both paths apply exactly
// the per-element operations of the single-buffer transform in the same
// order, so batch output is bit-identical to calling Transform per buffer at
// any worker count.
package fft

import "periodica/internal/obs"

// TransformBatch transforms every buffer in xs (each of length Size) in
// place, forward or inverse, sharing one setup pass across the batch.
func (p *Plan) TransformBatch(xs [][]complex128, inverse bool, workers int) {
	n := p.n
	for _, x := range xs {
		if len(x) != n {
			panic("fft: batch buffer length does not match plan size")
		}
	}
	if len(xs) == 0 || n == 1 {
		return
	}
	obs.FFT().KernelBatch.Inc()
	if len(xs) == 1 {
		p.Transform(xs[0], inverse, workers)
		return
	}
	tw := p.twf
	if inverse {
		tw = p.twi
	}
	if workers > 1 {
		// Split the worker budget: buffers across groups, then leftover
		// parallelism inside each buffer's transform.
		groups := min(workers, len(xs))
		inner := workers / groups
		parallelRange(groups, func(g int) {
			lo := len(xs) * g / groups
			hi := len(xs) * (g + 1) / groups
			for _, x := range xs[lo:hi] {
				if inner > 1 && n/inner >= minParallelChunk {
					p.transformParallel(x, tw, inner)
				} else {
					applySwaps(x, p.swaps)
					runStages(x, tw, 0, n, n)
				}
			}
		})
	} else {
		p.transformBatchSerial(xs, tw)
	}
	if inverse {
		inv := 1 / float64(n)
		for _, x := range xs {
			for i := range x {
				x[i] = complex(real(x[i])*inv, imag(x[i])*inv)
			}
		}
	}
}

// transformBatchSerial interleaves the buffers stage by stage: all swap
// passes, then the radix-4 head of every buffer, then each later stage group
// across every buffer — one walk of each twiddle block per batch instead of
// per buffer.
//
//opvet:noalloc
func (p *Plan) transformBatchSerial(xs [][]complex128, tw []complex128) {
	n := p.n
	for _, x := range xs {
		applySwaps(x, p.swaps)
		stageHead(x, tw, 0, n, n)
	}
	for size := 8; size <= n; size <<= 2 {
		for _, x := range xs {
			stageGroup(x, tw, 0, n, n, size)
		}
	}
}

// transformPair transforms two buffers with a shared setup. The serial path
// goes through the stage-interleaved batch kernel with a stack-allocated
// two-element batch — no per-call heap traffic, which keeps the pair
// autocorrelation hot loop allocation-free; the parallel path delegates to
// the per-buffer kernel.
//
//opvet:noalloc
func (p *Plan) transformPair(z1, z2 []complex128, inverse bool, workers int) {
	if workers > 1 && p.n/workers >= minParallelChunk {
		p.Transform(z1, inverse, workers)
		p.Transform(z2, inverse, workers)
		return
	}
	obs.FFT().KernelBatch.Inc()
	tw := p.twf
	if inverse {
		tw = p.twi
	}
	var both [2][]complex128
	both[0], both[1] = z1, z2
	p.transformBatchSerial(both[:], tw)
	if inverse {
		inv := 1 / float64(p.n)
		for i := range z1 {
			z1[i] = complex(real(z1[i])*inv, imag(z1[i])*inv)
		}
		for i := range z2 {
			z2[i] = complex(real(z2[i])*inv, imag(z2[i])*inv)
		}
	}
}
