package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of v, interpolating
// linearly between the two nearest ranks; 0 for an empty slice.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// median is the summary of every per-round and per-replay value.
func median(v []float64) float64 { return percentile(v, 50) }

// mean returns the arithmetic mean of v; 0 for an empty slice.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// quartiles returns the first and third quartiles of v by the method of
// Python's statistics.quantiles(v, n=4), which is also how the benchmark's
// run-to-run spread is judged. It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the distance between v's quartiles as a share of its median; 0
// when there are fewer than two values to compare.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(median(v))
}

// interval is one span's extent, in nanoseconds.
type interval struct{ start, end int64 }

// unionLength returns how much of the time line the intervals cover, counting
// overlaps once. A parent span's self time is its length minus the union of
// its children.
func unionLength(iv []interval) int64 {
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total int64
	var cur interval
	for i, x := range s {
		switch {
		case i == 0:
			cur = x
		case x.start <= cur.end:
			cur.end = max(cur.end, x.end)
		default:
			total += cur.end - cur.start
			cur = x
		}
	}
	if len(s) > 0 {
		total += cur.end - cur.start
	}
	return total
}

// logLogSlope fits log(y) = a + b·log(x) by least squares and returns b: a
// cost growing as x^b. Points with a non-positive value are skipped; fewer
// than two usable points give 0.
func logLogSlope(x, y []float64) float64 {
	var lx, ly []float64
	for i := range x {
		if x[i] > 0 && y[i] > 0 {
			lx = append(lx, math.Log(x[i]))
			ly = append(ly, math.Log(y[i]))
		}
	}
	if len(lx) < 2 {
		return 0
	}
	var mx, my float64
	for i := range lx {
		mx += lx[i]
		my += ly[i]
	}
	mx /= float64(len(lx))
	my /= float64(len(ly))
	var sxy, sxx float64
	for i := range lx {
		sxy += (lx[i] - mx) * (ly[i] - my)
		sxx += (lx[i] - mx) * (lx[i] - mx)
	}
	return sxy / sxx
}
