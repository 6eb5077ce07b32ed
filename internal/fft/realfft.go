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

// autocorrSpectrumReal fuses the forward split post-pass, the power spectrum
// |X|², and the inverse pre-pass (forwardRealPost and inverseRealPre, the
// tests' references) into one O(h) pass: z arrives as the half-size forward
// transform of the packed sequence and leaves ready for the half-size
// inverse transform, whose output unpacks to the raw autocorrelation. The
// power spectrum is real and symmetric (P(m−k) = P(k)), so with
// ep = (P(k)+P(h−k))/2 and dd = (P(k)−P(h−k))/2 the pre-passed value is
// Z(k) = ep + i·w^{−k}·dd and Z(h−k) = ep + i·w^k·dd.
//
//opvet:noalloc
func autocorrSpectrumReal(z []complex128, tw []complex128) {
	h := len(z)
	z0 := z[0]
	x0 := real(z0) + imag(z0)
	xh := real(z0) - imag(z0)
	p0, ph := x0*x0, xh*xh
	z[0] = complex((p0+ph)*0.5, (p0-ph)*0.5)
	zm := z[h/2]
	z[h/2] = complex(real(zm)*real(zm)+imag(zm)*imag(zm), 0)
	for k := 1; 2*k < h; k++ {
		zk, zhk := z[k], z[h-k]
		c := complex(real(zhk), -imag(zhk))
		e := (zk + c) * 0.5
		d := zk - c
		o := complex(imag(d)*0.5, -real(d)*0.5)
		w := tw[h+k]
		wo := w * o
		a := e + wo
		b := e - wo
		pk := real(a)*real(a) + imag(a)*imag(a)
		phk := real(b)*real(b) + imag(b)*imag(b)
		ep := (pk + phk) * 0.5
		dd := (pk - phk) * 0.5
		z[k] = complex(ep+imag(w)*dd, real(w)*dd)
		z[h-k] = complex(ep-imag(w)*dd, real(w)*dd)
	}
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

// AutocorrelateCounts returns r[p] = Σ_i x[i]·x[i+p] rounded to integers,
// costing one half-size forward and one half-size inverse transform.
func (p *Plan) AutocorrelateCounts(x []float64) []int64 {
	if len(x) == 0 {
		return nil
	}
	return p.AutocorrelateCountsInto(x, make([]int64, len(x)), 0)
}

// AutocorrelateCountsInto is AutocorrelateCounts writing into out (length
// len(x)); allocation-free after the scratch pool is warm. workers ≤ 0
// selects the automatic policy. The input is packed into one pooled
// half-size buffer, transformed forward, squared and pre-passed by the fused
// spectral pass, transformed back and rounded. A plan below size 4 has no
// packed layout; it admits at most one sample, whose one lag is x[0]².
//
//opvet:noalloc
func (p *Plan) AutocorrelateCountsInto(x []float64, out []int64, workers int) []int64 {
	if 2*len(x) > p.n {
		panic(fmt.Sprintf("fft: plan size %d too small for autocorrelation of %d", p.n, len(x)))
	}
	out = out[:len(x)]
	if p.n < 4 {
		if len(x) == 1 {
			out[0] = int64(math.Round(x[0] * x[0]))
		}
		return out
	}
	if workers <= 0 {
		workers = p.autoWorkers()
	}
	obs.FFT().KernelReal.Inc()
	q := p.halfPlan()
	zp := q.scratch()
	z := *zp
	packReal(z, x)
	q.Transform(z, false, workers)
	autocorrSpectrumReal(z, p.twf)
	q.Transform(z, true, workers)
	roundUnpacked(out, z)
	q.release(zp)
	return out
}

// AutocorrelateCountsPairInto computes the counts of two equal-length inputs
// into out1 and out2 (each of length len(x1)), sharing the half plan's swap
// and twiddle passes between them (see transformPair). Each buffer sees
// exactly the operations of AutocorrelateCountsInto, so the counts are
// bit-identical to two single calls. Allocation-free after the scratch pool
// is warm; workers ≤ 0 selects the automatic policy.
//
//opvet:noalloc
func (p *Plan) AutocorrelateCountsPairInto(x1, x2 []float64, out1, out2 []int64, workers int) {
	n := len(x1)
	if len(x2) != n {
		panic(fmt.Sprintf("fft: pair length mismatch %d vs %d", n, len(x2)))
	}
	if n == 0 {
		return
	}
	if 2*n > p.n {
		panic(fmt.Sprintf("fft: plan size %d too small for pair autocorrelation of %d", p.n, n))
	}
	if p.n < 4 {
		p.AutocorrelateCountsInto(x1, out1, workers)
		p.AutocorrelateCountsInto(x2, out2, workers)
		return
	}
	if workers <= 0 {
		workers = p.autoWorkers()
	}
	obs.FFT().KernelReal.Inc()
	q := p.halfPlan()
	z1p, z2p := q.scratch(), q.scratch()
	z1, z2 := *z1p, *z2p
	packReal(z1, x1)
	packReal(z2, x2)
	q.transformPair(z1, z2, false, workers)
	autocorrSpectrumReal(z1, p.twf)
	autocorrSpectrumReal(z2, p.twf)
	q.transformPair(z1, z2, true, workers)
	roundUnpacked(out1[:n], z1)
	roundUnpacked(out2[:n], z2)
	q.release(z1p)
	q.release(z2p)
}
