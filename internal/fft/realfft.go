// Real-input FFT kernel. The per-symbol indicator sequences the miner
// correlates are real, so the full complex transform wastes half its work on
// an imaginary part that is identically zero. The standard remedy packs the
// even/odd samples of a length-m real sequence into a length-h = m/2 complex
// vector, runs one half-size complex transform, and recovers the true
// spectrum with an O(h) split post-pass — halving both the transform size
// and the pooled scratch; X(m−k) = conj(X(k)) implies the upper half of the
// spectrum, so every buffer is a pool-sized length-h slice. The kernel never
// permutes: its forward (dif) leaves the spectrum in bit-reversed order,
// slot r holding frequency k = rev(r), and the split, the accumulation, the
// inverse pre-pass and the inverse (dit) work in that order. Slot 0 holds
// the packed real pair (X(0), X(h)) and slot 1 k = h/2; the partner h−k of
// slot r in an octave [2^j, 2^(j+1)) is slot 3·2^j−1−r; and k is odd
// exactly when r ≥ h/2.
//
// The autocorrelation kernel built on it is a block kernel: it needs lags
// only up to the block length B = m/2, so a series longer than B costs one
// length-m real transform per block plus one inverse, not two transforms of
// twice the series.
package fft

import (
	"fmt"
	"math"

	"periodica/internal/obs"
)

// packBlock packs a block of at most h real samples into even/odd pairs,
// z[j] = (x[2j], x[2j+1]), and runs the forward network's first stage over
// them: the upper half of z is zero padding, so the stage reduces to
// z[j+h/2] = z[j]·w_h^j, with w_h^j from the half plan's forward table tw.
//
//opvet:noalloc
func packBlock(z []complex128, x []float64, tw []complex128) {
	h := len(z)
	lo, hi, t := z[:h/2], z[h/2:], tw[h/2:h]
	nx, j := len(x), 0
	for ; 2*j+1 < nx; j++ {
		v := complex(x[2*j], x[2*j+1])
		lo[j], hi[j] = v, v*t[j]
	}
	if 2*j < nx {
		v := complex(x[2*j], 0)
		lo[j], hi[j] = v, v*t[j]
		j++
	}
	clear(lo[j:])
	clear(hi[j:])
}

// roundUnpacked writes the rounded, scaled real sequence out of the packed
// complex vector: out[2j] = round(scale·Re z[j]), out[2j+1] = round(scale·Im z[j]).
//
//opvet:noalloc
func roundUnpacked(out []int64, z []complex128, scale float64) {
	n := len(out)
	for j := 0; 2*j < n; j++ {
		out[2*j] = int64(math.Round(real(z[j]) * scale))
		if 2*j+1 < n {
			out[2*j+1] = int64(math.Round(imag(z[j]) * scale))
		}
	}
}

// forwardRealPost converts the half-size transform Z of the packed sequence
// into the packed half spectrum, in place and in bit-reversed order. With
// E(k), O(k) the DFTs of the even and odd samples, Z(k) = E(k) + i·O(k) and
// the Hermitian symmetry of both gives, over (k, h−k) pairs,
//
//	E = (Z(k) + conj(Z(h−k)))/2,  O = (Z(k) − conj(Z(h−k)))/(2i),
//	X(k) = E + w^k·O,  X(h−k) = conj(E − w^k·O),  w = exp(−2πi/m),
//
// with the self-paired slots 0 (→ packed (X(0), X(h))) and 1 (k = h/2 →
// conj) handled directly. tw is the plan's split table: tw[r] = w^rev(r).
//
//opvet:noalloc
func forwardRealPost(z []complex128, tw []complex128) {
	h := len(z)
	z0 := z[0]
	z[0] = complex(real(z0)+imag(z0), real(z0)-imag(z0))
	z[1] = complex(real(z[1]), -imag(z[1]))
	for lo := 2; lo < h; lo <<= 1 {
		for r, s := lo, 2*lo-1; r < s; r, s = r+1, s-1 {
			z[r], z[s] = realSplit(z[r], z[s], tw[r])
		}
	}
}

// realSplit is the forward post-pass of one (k, h−k) slot pair: from the
// packed transform values Z(k), Z(h−k) and the twiddle w^k it returns the
// spectrum values X(k) and X(h−k).
func realSplit(zk, zhk, w complex128) (complex128, complex128) {
	c := complex(real(zhk), -imag(zhk))
	e := (zk + c) * 0.5
	d := zk - c
	o := complex(imag(d)*0.5, -real(d)*0.5) // d/(2i)
	wo := w * o
	b := e - wo
	return e + wo, complex(real(b), -imag(b))
}

// conjMulAdd returns acc + conj(c)·t.
func conjMulAdd(acc, c, t complex128) complex128 {
	return acc + complex(real(c)*real(t)+imag(c)*imag(t), real(c)*imag(t)-imag(c)*real(t))
}

// accumulateBlock folds one block boundary into the lag spectrum of the
// block kernel, in bit-reversed order. cur holds block j's packed spectrum
// X_j; next arrives as the half-size forward transform of block j+1 and
// leaves as its packed spectrum X_{j+1} (forwardRealPost, fused); and every
// slot of acc gains conj(X_j(k))·(X_j(k) + (−1)^k·X_{j+1}(k)), the spectrum
// of block j correlated with its 2B-sample window. Block j+1 starts B = h
// samples after block j, a factor (−1)^k at frequency k of the 2B-point
// transform: −1 exactly in the slots r ≥ h/2.
//
//opvet:noalloc
func accumulateBlock(acc, cur, next, tw []complex128) {
	h := len(next)
	z0 := next[0]
	x0, xh := real(z0)+imag(z0), real(z0)-imag(z0)
	next[0] = complex(x0, xh)
	c0 := cur[0]
	acc[0] += complex(real(c0)*(real(c0)+x0), imag(c0)*(imag(c0)+xh))
	xm := complex(real(next[1]), -imag(next[1]))
	if next[1] = xm; h == 2 {
		xm = -xm
	}
	acc[1] = conjMulAdd(acc[1], cur[1], cur[1]+xm)
	for lo := 2; lo < h; lo <<= 1 {
		odd := 2*lo == h
		for r, s := lo, 2*lo-1; r < s; r, s = r+1, s-1 {
			a, b := realSplit(next[r], next[s], tw[r])
			next[r], next[s] = a, b
			if odd {
				a, b = -a, -b
			}
			cr, cs := cur[r], cur[s]
			acc[r] = conjMulAdd(acc[r], cr, cr+a)
			acc[s] = conjMulAdd(acc[s], cs, cs+b)
		}
	}
}

// finishLagSpectrum folds the last block into the lag spectrum — its window
// holds only itself, so acc gains |X_j(k)|² — and fuses the inverse pre-pass:
// acc leaves ready for the half-size inverse transform, whose output unpacks
// to the raw lags. With S the accumulated spectrum, E = (S(k) + conj(S(h−k)))/2
// and O = w^{−k}·(S(k) − conj(S(h−k)))/2, the pre-passed values are
// Z(k) = E + i·O and Z(h−k) = conj(E) + i·conj(O), w^{−k} = conj(tw[r]).
//
//opvet:noalloc
func finishLagSpectrum(acc, cur, tw []complex128) {
	h := len(acc)
	c0 := cur[0]
	s0 := real(acc[0]) + real(c0)*real(c0)
	sh := imag(acc[0]) + imag(c0)*imag(c0)
	acc[0] = complex((s0+sh)*0.5, (s0-sh)*0.5)
	cm := cur[1]
	sm := acc[1] + complex(real(cm)*real(cm)+imag(cm)*imag(cm), 0)
	acc[1] = complex(real(sm), -imag(sm))
	for lo := 2; lo < h; lo <<= 1 {
		for r, s := lo, 2*lo-1; r < s; r, s = r+1, s-1 {
			cr, cs := cur[r], cur[s]
			sk := acc[r] + complex(real(cr)*real(cr)+imag(cr)*imag(cr), 0)
			shk := acc[s] + complex(real(cs)*real(cs)+imag(cs)*imag(cs), 0)
			c := complex(real(shk), -imag(shk))
			e := (sk + c) * 0.5
			w := tw[r]
			o := complex(real(w), -imag(w)) * ((sk - c) * 0.5)
			acc[r] = complex(real(e)-imag(o), imag(e)+real(o))
			acc[s] = complex(real(e)+imag(o), -imag(e)+real(o))
		}
	}
}

// AutocorrelateCountsInto writes r[p] = Σ_i x[i]·x[i+p], rounded to integers,
// for the lags p = 0..len(out)−1 into out and returns out. It is the block
// kernel: with B = Size/2, x is cut into blocks x[jB, (j+1)B), each
// zero-padded to 2B and transformed, and the lag spectrum S(k) =
// Σ_j conj(F_j(k))·(F_j(k) + (−1)^k·F_{j+1}(k)) — block j correlated with
// blocks j and j+1 — goes through one inverse transform. A lag p ≤ B never
// wraps, so the counts are exact for len(out) ≤ B+1 (which the kernel
// requires, along with len(out) ≤ len(x)). The cost is ⌈len(x)/B⌉ forward
// transforms of size B plus one inverse; BandSize picks B for a lag band.
//
// The block, spectrum and accumulator buffers come from the half plan's
// pool, so the kernel is allocation-free after warm-up. workers ≤ 0 selects
// the automatic policy for the butterflies of each transform; the counts are
// bit-identical at every worker count. A plan below size 4 has no packed
// layout and panics; BandSize never picks one.
//
//opvet:noalloc
func (p *Plan) AutocorrelateCountsInto(x []float64, out []int64, workers int) []int64 {
	nx, blk := len(x), p.n/2
	if len(out) > nx || len(out) > blk+1 {
		panic(fmt.Sprintf("fft: plan size %d cannot give %d lags of %d samples", p.n, len(out), nx))
	}
	if len(out) == 0 {
		return out
	}
	a, b := p.NewLagAccumulator(workers), Block{}
	a.Add(x, &b)
	b.Release()
	return a.Finish(out)
}

// LagAccumulator is the block kernel's state over one sequence fed in
// blocks: the packed spectrum of the last block and the lag spectrum so far,
// two half-plan buffers in bit-reversed slot order. Add folds in the next
// samples and Finish turns the sum into counts, so a sequence streamed from
// disk costs those two buffers however long it is; AutocorrelateCountsInto
// passes a sequence held in memory to one Add.
type LagAccumulator struct {
	p         *Plan
	workers   int           // fitted to the half plan
	spec, acc *[]complex128 // nil until the first block
}

// Block is the buffer Add transforms a block in. One Block serves any number
// of accumulators of one plan in turn: Add leaves the spent spectrum buffer
// in it. Release returns it to the plan's pool.
type Block struct {
	q   *Plan
	buf *[]complex128
}

// Release returns the block's buffer to its pool.
func (b *Block) Release() {
	if b.buf != nil {
		b.q.release(b.buf)
		b.buf = nil
	}
}

// NewLagAccumulator starts the block kernel over one sequence (one
// real-kernel call in the FFT counters) on a plan of size ≥ 4. workers ≤ 0
// selects the automatic policy for the butterflies of each transform.
func (p *Plan) NewLagAccumulator(workers int) LagAccumulator {
	if p.n < 4 {
		panic(fmt.Sprintf("fft: plan size %d has no block kernel", p.n))
	}
	obs.FFT().KernelReal.Inc()
	if workers <= 0 {
		workers = p.autoWorkers()
	}
	return LagAccumulator{p: p, workers: p.halfPlan().fit(workers)}
}

// Add folds the next samples of the sequence, x, into the lag spectrum one
// block of B = Size/2 at a time, transforming each in blk. Every call but
// the last must pass a whole number of blocks.
//
//opvet:noalloc
func (a *LagAccumulator) Add(x []float64, blk *Block) {
	q := a.p.half
	twf, _ := q.twiddles()
	for lo := 0; lo < len(x); lo += q.n {
		if blk.buf == nil {
			blk.q, blk.buf = q, q.scratch()
		}
		next := *blk.buf
		packBlock(next, x[lo:min(lo+q.n, len(x))], twf)
		q.dif(next, q.n/2, a.workers)
		if a.spec == nil {
			forwardRealPost(next, a.p.split)
			a.acc = q.scratch()
			clear(*a.acc)
		} else {
			accumulateBlock(*a.acc, *a.spec, next, a.p.split)
		}
		a.spec, blk.buf = blk.buf, a.spec
	}
}

// Finish writes the lags 0..len(out)−1, rounded, into out and releases the
// buffers. It needs a block added; out may hold at most Size/2+1 lags and
// no more than the sequence's length.
//
//opvet:noalloc
func (a *LagAccumulator) Finish(out []int64) []int64 {
	if len(out) > a.p.n/2+1 {
		panic(fmt.Sprintf("fft: plan size %d cannot give %d lags", a.p.n, len(out)))
	}
	zp := a.raw()
	roundUnpacked(out, *zp, 1/float64(a.p.half.n))
	a.p.half.release(zp)
	return out
}

// raw folds in the last block, whose window holds only itself, runs the
// inverse and returns the pooled buffer holding Size/2 times the unrounded
// lags, packed as pairs (lag 2j, lag 2j+1) in slot j.
//
//opvet:noalloc
func (a *LagAccumulator) raw() *[]complex128 {
	q, acc := a.p.half, a.acc
	finishLagSpectrum(*acc, *a.spec, a.p.split)
	q.dit(*acc, a.workers)
	q.release(a.spec)
	a.spec, a.acc = nil, nil
	return acc
}
