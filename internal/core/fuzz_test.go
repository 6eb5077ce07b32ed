package core

import (
	"errors"
	"reflect"
	"testing"

	"periodica/internal/alphabet"
	"periodica/internal/series"
)

// FuzzMine drives the miner with arbitrary symbol streams, thresholds,
// MinPairs (1–4) and period bands, checking the structural invariants and
// that the bitset and FFT engines agree with the naive one, which prunes
// nothing. The draws reach periods where one pair-count group of a period
// cannot qualify and top periods with one or two pairs, the edges of
// resolve's cutoff.
func FuzzMine(f *testing.F) {
	f.Add([]byte("abcabbabcb"), uint8(66), uint8(0), uint8(0), uint8(0))
	f.Add([]byte("aaaaaaa"), uint8(100), uint8(0), uint8(0), uint8(0))
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 0, 1}, uint8(50), uint8(0), uint8(0), uint8(0))
	f.Add([]byte("xy"), uint8(1), uint8(0), uint8(0), uint8(0))
	// MinPairs 2 over the band [2, 5]: at period 4 the phases l ≥ 2 have
	// one pair and cannot qualify, while symbol 0 holds phase 0.
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 0, 1}, uint8(50), uint8(1), uint8(2), uint8(3))
	// MinPairs 3 over the band [1, 6], whose top periods have one pair.
	f.Add([]byte("aaaaaaa"), uint8(100), uint8(2), uint8(1), uint8(5))
	f.Add([]byte("abcabcabcaabcabcabcabcabbbcabcab"), uint8(59), uint8(3), uint8(8), uint8(40))
	f.Fuzz(func(t *testing.T, data []byte, thr, minPairs, lo, hi uint8) {
		if len(data) < 2 || len(data) > 200 {
			t.Skip()
		}
		const sigma = 4
		idx := make([]uint16, len(data))
		for i, b := range data {
			idx[i] = uint16(b % sigma)
		}
		s := series.FromIndices(alphabet.Letters(sigma), idx)
		psi := float64(thr%100+1) / 100
		// A band inside [1, n]; hi 0 keeps the default top of n/2.
		n := len(data)
		minPeriod, maxPeriod := int(lo)%(n/2+1), 0
		if hi != 0 {
			minPeriod = int(lo) % n
			from := max(minPeriod, 1)
			maxPeriod = from + int(hi)%(n-from+1)
		}
		opt := Options{Threshold: psi, MinPairs: 1 + int(minPairs%4), MinPeriod: minPeriod, MaxPeriod: maxPeriod}

		opt.Engine = EngineNaive
		naive, err := mine(s, opt)
		if err != nil {
			t.Fatalf("naive %+v: %v", opt, err)
		}
		for _, eng := range []Engine{EngineBitset, EngineFFT} {
			opt.Engine = eng
			got, err := mine(s, opt)
			if err != nil {
				t.Fatalf("%v: %v", eng, err)
			}
			if !reflect.DeepEqual(naive.Periodicities, got.Periodicities) {
				t.Fatalf("%+v: naive and %v disagree on periodicities", opt, eng)
			}
			if !reflect.DeepEqual(naive.Patterns, got.Patterns) {
				t.Fatalf("%+v: naive and %v disagree on patterns", opt, eng)
			}
		}
		for _, sp := range naive.Periodicities {
			if sp.Confidence < psi || sp.Confidence > 1 {
				t.Fatalf("confidence %v outside [ψ,1]", sp.Confidence)
			}
			if sp.F2 < 1 || sp.F2 > sp.Pairs {
				t.Fatalf("F2 %d outside [1,%d]", sp.F2, sp.Pairs)
			}
			if sp.Pairs < opt.MinPairs || sp.Period < minPeriod || (maxPeriod > 0 && sp.Period > maxPeriod) {
				t.Fatalf("%+v: periodicity %+v outside the query", opt, sp)
			}
			if want := s.F2(sp.Symbol, sp.Period, sp.Position); sp.F2 != want {
				t.Fatalf("reported F2 %d != definitional %d", sp.F2, want)
			}
		}
		for _, pt := range naive.Patterns {
			if pt.FixedSymbols() < 2 {
				t.Fatal("multi-symbol pattern with < 2 fixed symbols")
			}
			if pt.Support < psi {
				t.Fatal("pattern below threshold")
			}
		}
	})
}

// FuzzCounts checks the online count tables against the batch miner on
// arbitrary streams and queries: the count table whole and merged from two
// cuts, and a window miner whose window has not yet slid, each answering
// the threshold, period band and MinPairs drawn from the input with the
// periodicities a mine of the same options reports. A second window miner,
// shorter than a stream of more than tracked+1 symbols, has slid: its
// counts must be the brute-force counts of the window in absolute phase,
// and its answers those of a mine of the window with phases shifted to
// the window's start.
func FuzzCounts(f *testing.F) {
	f.Add([]byte("abcabcabc"), uint8(49), uint8(0), uint8(0), uint8(0))
	f.Add([]byte{1, 1, 2, 2, 1, 1, 2, 2}, uint8(65), uint8(2), uint8(6), uint8(2))
	f.Add([]byte("abcabbabcbabcab"), uint8(99), uint8(3), uint8(0), uint8(3))
	f.Add([]byte("aaaaaaaaaaaaaaaaaaaa"), uint8(99), uint8(2), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, thr, minPeriod, maxPeriod, minPairs uint8) {
		if len(data) < 3 || len(data) > 150 {
			t.Skip()
		}
		const sigma, tracked = 3, 10
		alpha := alphabet.Letters(sigma)
		opt := Options{
			Threshold: float64(thr%100+1) / 100,
			MinPeriod: int(minPeriod % 13),
			MaxPeriod: int(maxPeriod % 13),
			MinPairs:  int(minPairs % 5),
		}
		w, err := NewWindowMiner(sigma, tracked, max(len(data), tracked)+1)
		if err != nil {
			t.Fatal(err)
		}
		idx := make([]uint16, len(data))
		for i, b := range data {
			k := int(b % sigma)
			idx[i] = uint16(k)
			if err := w.Append(k); err != nil {
				t.Fatal(err)
			}
		}
		c := fillCounts(t, sigma, tracked, idx)
		mineOpt := clampPeriods(opt, tracked, len(idx))
		mineOpt.Engine, mineOpt.MaxPatternPeriod = EngineNaive, -1
		want, wantErr := mine(series.FromIndices(alpha, idx), mineOpt)

		// The same stream cut in two and merged must agree as well.
		cut := int(data[0]) % len(idx)
		head, tail := fillCounts(t, sigma, tracked, idx[:cut]), fillCounts(t, sigma, tracked, idx[cut:])
		if err := head.Merge(tail); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(head, c) {
			t.Fatalf("merge at %d disagrees with contiguous ingest", cut)
		}

		for name, table := range map[string]func(Options) ([]SymbolPeriodicity, error){
			"whole":  c.Periodicities,
			"merged": head.Periodicities,
			"window": w.Periodicities,
		} {
			got, err := table(opt)
			if wantErr != nil {
				if !errors.Is(err, ErrInvalidInput) {
					t.Fatalf("%s %+v: error %v, want invalid input like the mine's %v", name, opt, err, wantErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s %+v: %v", name, opt, err)
			}
			if !reflect.DeepEqual(sortPers(got), sortPers(want.Periodicities)) {
				t.Fatalf("%s %+v disagrees with batch", name, opt)
			}
		}

		if len(idx) <= tracked+1 {
			return
		}
		size := tracked + 1 + int(data[len(data)-1])%(len(idx)-tracked-1)
		slid, err := NewWindowMiner(sigma, tracked, size)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range idx {
			if err := slid.Append(int(k)); err != nil {
				t.Fatal(err)
			}
		}
		start := len(idx) - size
		for k := 0; k < sigma; k++ {
			for p := 1; p <= tracked; p++ {
				for l := 0; l < p; l++ {
					var f2, pairs int
					for i := start + (l-start%p+p)%p; i+p < len(idx); i += p {
						pairs++
						if int(idx[i]) == k && idx[i+p] == idx[i] {
							f2++
						}
					}
					if got := slid.counts.F2(k, p, l); got != f2 {
						t.Fatalf("window %d of %d: F2(%d,%d,%d) = %d, brute force %d", size, len(idx), k, p, l, got, f2)
					}
					if got := slid.windowPairs(p, l); got != pairs {
						t.Fatalf("window %d of %d: windowPairs(%d,%d) = %d, brute force %d", size, len(idx), p, l, got, pairs)
					}
				}
			}
		}
		mineOpt = clampPeriods(opt, tracked, size)
		mineOpt.Engine, mineOpt.MaxPatternPeriod = EngineNaive, -1
		want, wantErr = mine(series.FromIndices(alpha, idx[start:]), mineOpt)
		got, err := slid.Periodicities(opt)
		if wantErr != nil {
			if !errors.Is(err, ErrInvalidInput) {
				t.Fatalf("slid window %+v: error %v, want invalid input like the mine's %v", opt, err, wantErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("slid window %+v: %v", opt, err)
		}
		shifted := append([]SymbolPeriodicity(nil), want.Periodicities...)
		for i := range shifted {
			shifted[i].Position = (shifted[i].Position + start) % shifted[i].Period
		}
		if !reflect.DeepEqual(sortPers(got), sortPers(shifted)) {
			t.Fatalf("slid window %d of %d %+v disagrees with a mine of the window", size, len(idx), opt)
		}
	})
}
