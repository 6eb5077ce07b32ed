// Real-input FFT kernel. The per-symbol indicator sequences the miner
// correlates are real, so the full complex transform wastes half its work on
// an imaginary part that is identically zero. The standard remedy packs the
// even/odd samples of a length-m real sequence into a length-h = m/2 complex
// vector, runs one half-size complex transform, and recovers the true
// spectrum with an O(h) split post-pass — halving both the transform size
// and the pooled scratch. The half spectrum is stored packed in h slots:
// spec[k] = X(k) for 1 ≤ k < h, and spec[0] = (X(0), X(h)) — both real for
// real input — so every buffer the kernel touches is a pool-sized length-h
// slice. The upper half of the spectrum is implied by X(m−k) = conj(X(k)).
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

// packReal packs x into even/odd pairs, z[j] = (x[2j], x[2j+1]), zero-padding
// the tail of z.
//
//opvet:noalloc
func packReal(z []complex128, x []float64) {
	nx := len(x)
	j := 0
	for ; 2*j+1 < nx; j++ {
		z[j] = complex(x[2*j], x[2*j+1])
	}
	if 2*j < nx {
		z[j] = complex(x[2*j], 0)
		j++
	}
	clear(z[j:])
}

// roundUnpacked writes the rounded real sequence out of the packed complex
// vector: out[2j] = round(Re z[j]), out[2j+1] = round(Im z[j]).
//
//opvet:noalloc
func roundUnpacked(out []int64, z []complex128) {
	n := len(out)
	for j := 0; 2*j < n; j++ {
		out[2*j] = int64(math.Round(real(z[j])))
		if 2*j+1 < n {
			out[2*j+1] = int64(math.Round(imag(z[j])))
		}
	}
}

// forwardRealPost converts the half-size transform Z of the packed sequence
// into the packed half spectrum, in place. With E(k), O(k) the DFTs of the
// even and odd samples, Z(k) = E(k) + i·O(k) and the Hermitian symmetry of
// both gives, over (k, h−k) pairs,
//
//	E = (Z(k) + conj(Z(h−k)))/2,  O = (Z(k) − conj(Z(h−k)))/(2i),
//	X(k) = E + w^k·O,  X(h−k) = conj(E − w^k·O),  w = exp(−2πi/m),
//
// with the self-paired slots k = 0 (→ packed (X(0), X(h))) and k = h/2
// (→ conj) handled directly. tw is the plan's forward table: tw[h+k] = w^k.
//
//opvet:noalloc
func forwardRealPost(z []complex128, tw []complex128) {
	h := len(z)
	z0 := z[0]
	z[0] = complex(real(z0)+imag(z0), real(z0)-imag(z0))
	zm := z[h/2]
	z[h/2] = complex(real(zm), -imag(zm))
	for k := 1; 2*k < h; k++ {
		a, b := realSplit(z[k], z[h-k], tw[h+k])
		z[k], z[h-k] = a, b
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
// block kernel. cur holds block j's packed spectrum X_j; next arrives as the
// half-size forward transform of block j+1 and leaves as its packed spectrum
// X_{j+1} (forwardRealPost, fused); and every slot of acc gains
// conj(X_j(k))·(X_j(k) + (−1)^k·X_{j+1}(k)), the spectrum of block j
// correlated with its 2B-sample window. Block j+1 starts B = h samples after
// block j, which at frequency k of the 2B-point transform is a factor
// (−1)^k. In the packed layout slot 0 holds the real pair (k = 0, k = h),
// both with sign +1 (h is even).
//
//opvet:noalloc
func accumulateBlock(acc, cur, next, tw []complex128) {
	h := len(next)
	z0 := next[0]
	x0, xh := real(z0)+imag(z0), real(z0)-imag(z0)
	next[0] = complex(x0, xh)
	c0 := cur[0]
	acc[0] += complex(real(c0)*(real(c0)+x0), imag(c0)*(imag(c0)+xh))
	zm := next[h/2]
	xm := complex(real(zm), -imag(zm))
	next[h/2] = xm
	if (h/2)&1 != 0 {
		xm = -xm
	}
	cm := cur[h/2]
	acc[h/2] = conjMulAdd(acc[h/2], cm, cm+xm)
	for k := 1; 2*k < h; k++ {
		a, b := realSplit(next[k], next[h-k], tw[h+k])
		next[k], next[h-k] = a, b
		if k&1 != 0 {
			a, b = -a, -b
		}
		ck, chk := cur[k], cur[h-k]
		acc[k] = conjMulAdd(acc[k], ck, ck+a)
		acc[h-k] = conjMulAdd(acc[h-k], chk, chk+b)
	}
}

// finishLagSpectrum folds the last block into the lag spectrum — its window
// holds only itself, so acc gains |X_j(k)|² — and fuses the inverse pre-pass:
// acc leaves ready for the half-size inverse transform, whose output unpacks
// to the raw lags. With S the accumulated spectrum, E = (S(k) + conj(S(h−k)))/2
// and O = w^{−k}·(S(k) − conj(S(h−k)))/2, the pre-passed values are
// Z(k) = E + i·O and Z(h−k) = conj(E) + i·conj(O). ti is the plan's inverse
// table: ti[h+k] = w^{−k}.
//
//opvet:noalloc
func finishLagSpectrum(acc, cur, ti []complex128) {
	h := len(acc)
	c0 := cur[0]
	s0 := real(acc[0]) + real(c0)*real(c0)
	sh := imag(acc[0]) + imag(c0)*imag(c0)
	acc[0] = complex((s0+sh)*0.5, (s0-sh)*0.5)
	cm := cur[h/2]
	sm := acc[h/2] + complex(real(cm)*real(cm)+imag(cm)*imag(cm), 0)
	acc[h/2] = complex(real(sm), -imag(sm))
	for k := 1; 2*k < h; k++ {
		ck, chk := cur[k], cur[h-k]
		sk := acc[k] + complex(real(ck)*real(ck)+imag(ck)*imag(ck), 0)
		shk := acc[h-k] + complex(real(chk)*real(chk)+imag(chk)*imag(chk), 0)
		c := complex(real(shk), -imag(shk))
		e := (sk + c) * 0.5
		o := ti[h+k] * ((sk - c) * 0.5)
		acc[k] = complex(real(e)-imag(o), imag(e)+real(o))
		acc[h-k] = complex(real(e)+imag(o), -imag(e)+real(o))
	}
}

// AutocorrelateCounts returns r[p] = Σ_i x[i]·x[i+p] rounded to integers for
// every lag p < len(x). The plan must hold blocks of at least len(x)−1
// samples (Size ≥ 2·(len(x)−1)).
func (p *Plan) AutocorrelateCounts(x []float64) []int64 {
	if len(x) == 0 {
		return nil
	}
	return p.AutocorrelateCountsInto(x, make([]int64, len(x)), 0)
}

// AutocorrelateCountsInto writes r[p] = Σ_i x[i]·x[i+p], rounded to integers,
// for the lags p = 0..len(out)−1 into out and returns out. It is the block
// kernel: with B = Size/2, x is cut into blocks x[jB, (j+1)B), each is
// zero-padded to 2B and transformed through the half-size real-input kernel,
// and the lag spectrum S(k) = Σ_j conj(F_j(k))·(F_j(k) + (−1)^k·F_{j+1}(k))
// — block j correlated with the window of blocks j and j+1 — goes through one
// inverse transform. A lag p ≤ B never wraps, so the counts are exact for
// len(out) ≤ B+1 (which the kernel requires, along with len(out) ≤ len(x)).
// The cost is ⌈len(x)/B⌉ forward transforms of size B plus one inverse;
// BandSize picks B for a lag band.
//
// The block, spectrum and accumulator buffers come from the half plan's
// pool, so the kernel is allocation-free after warm-up. workers ≤ 0 selects
// the automatic policy for the butterflies of each transform; the counts are
// bit-identical at every worker count. A plan below size 4 has no packed
// layout; it admits at most one sample, whose one lag is x[0]².
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
	if p.n < 4 {
		if nx > 1 {
			panic(fmt.Sprintf("fft: plan size %d too small for autocorrelation of %d", p.n, nx))
		}
		out[0] = int64(math.Round(x[0] * x[0]))
		return out
	}
	if workers <= 0 {
		workers = p.autoWorkers()
	}
	q := p.halfPlan()
	zp := p.rawLags(x, workers)
	roundUnpacked(out, *zp)
	q.release(zp)
	return out
}

// rawLags runs the block kernel over x up to the inverse transform and
// returns the half plan's pooled buffer that holds the unrounded lags,
// packed as pairs (lag 2j, lag 2j+1) in slot j. The caller releases it to
// the half plan. p.n must be at least 4.
//
//opvet:noalloc
func (p *Plan) rawLags(x []float64, workers int) *[]complex128 {
	obs.FFT().KernelReal.Inc()
	nx, blk := len(x), p.n/2
	q := p.halfPlan()
	zp, np, ap := q.scratch(), q.scratch(), q.scratch()
	cur, next, acc := *zp, *np, *ap
	clear(acc)
	packReal(cur, x[:min(blk, nx)])
	q.Transform(cur, false, workers)
	forwardRealPost(cur, p.twf)
	for lo := blk; lo < nx; lo += blk {
		packReal(next, x[lo:min(lo+blk, nx)])
		q.Transform(next, false, workers)
		accumulateBlock(acc, cur, next, p.twf)
		cur, next = next, cur
	}
	finishLagSpectrum(acc, cur, p.twi)
	q.Transform(acc, true, workers)
	q.release(zp)
	q.release(np)
	return ap
}
