package conv

import (
	"math/big"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"periodica/internal/alphabet"
	"periodica/internal/exec"
	"periodica/internal/fft"
	"periodica/internal/series"
)

func TestBinaryCharsPaperExample(t *testing.T) {
	// Paper §3.2: T = acccabb maps to the binary vector
	// 001 100 100 100 001 010 010.
	s := series.FromString("acccabb")
	got := BinaryChars(s)
	want := "001100100100001010010"
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		var bit uint8
		if want[i] == '1' {
			bit = 1
		}
		if got[i] != bit {
			t.Fatalf("BinaryChars mismatch at %d: got %v, want %s", i, got, want)
		}
	}
}

func TestTPrimeStringMatchesBinaryChars(t *testing.T) {
	// Map's bit-vector String (MSB first) must render the same characters.
	s := series.FromString("acccabb")
	m := Map(s)
	if got, want := m.TPrime.String(), "001100100100001010010"; got != want {
		t.Fatalf("T′ = %s, want %s", got, want)
	}
}

func TestComponentPaperExampleAcccabb(t *testing.T) {
	// Paper §3.2: for T = acccabb, c′_1 = 2^1 + 2^11 + 2^14 and c′_4 = 2^6.
	s := series.FromString("acccabb")
	m := Map(s)

	c1 := m.ComponentInt(1)
	want1 := new(big.Int)
	for _, w := range []int{1, 11, 14} {
		want1.SetBit(want1, w, 1)
	}
	if c1.Cmp(want1) != 0 {
		t.Fatalf("c′_1 = %v (bits %v), want 2^1+2^11+2^14", c1, m.Wp(1))
	}

	c4 := m.ComponentInt(4)
	want4 := new(big.Int).SetBit(new(big.Int), 6, 1)
	if c4.Cmp(want4) != 0 {
		t.Fatalf("c′_4 = %v (bits %v), want 2^6", c4, m.Wp(4))
	}
}

func TestWSetsPaperExampleAbcabbabcb(t *testing.T) {
	// Paper §3.2: T = abcabbabcb, n=10, σ=3, p=3:
	// W_3 = {18,16,9,7}, W_{3,0} = {18,9}, W_{3,0,0} = {18,9} → F2 = 2.
	s := series.FromString("abcabbabcb")
	m := Map(s)

	w3 := m.Wp(3)
	sort.Ints(w3)
	wantW3 := []int{7, 9, 16, 18}
	if len(w3) != len(wantW3) {
		t.Fatalf("W_3 = %v, want %v", w3, wantW3)
	}
	for i := range wantW3 {
		if w3[i] != wantW3[i] {
			t.Fatalf("W_3 = %v, want %v", w3, wantW3)
		}
	}

	w30 := m.Wpk(3, 0)
	sort.Ints(w30)
	if len(w30) != 2 || w30[0] != 9 || w30[1] != 18 {
		t.Fatalf("W_{3,0} = %v, want [9 18]", w30)
	}
	w300 := m.Wpkl(3, 0, 0)
	if len(w300) != 2 {
		t.Fatalf("|W_{3,0,0}| = %d, want 2", len(w300))
	}
	// W_{3,1,1} = {16,7} corresponds to symbol b at position 1.
	w311 := m.Wpkl(3, 1, 1)
	sort.Ints(w311)
	if len(w311) != 2 || w311[0] != 7 || w311[1] != 16 {
		t.Fatalf("W_{3,1,1} = %v, want [7 16]", w311)
	}
}

func TestWSetsPaperExampleCabccbacd(t *testing.T) {
	// Paper §3.2: T = cabccbacd, n=9, σ=4, p=4:
	// W_4 = {18,6}, W_{4,2} = {18,6}, W_{4,2,0} = {18}, W_{4,2,3} = {6}.
	s := series.FromString("cabccbacd")
	if s.Alphabet().Size() != 4 {
		t.Fatalf("σ = %d, want 4", s.Alphabet().Size())
	}
	m := Map(s)
	w4 := m.Wp(4)
	sort.Ints(w4)
	if len(w4) != 2 || w4[0] != 6 || w4[1] != 18 {
		t.Fatalf("W_4 = %v, want [6 18]", w4)
	}
	w42 := m.Wpk(4, 2)
	if len(w42) != 2 {
		t.Fatalf("W_{4,2} = %v, want two entries", w42)
	}
	if got := m.Wpkl(4, 2, 0); len(got) != 1 || got[0] != 18 {
		t.Fatalf("W_{4,2,0} = %v, want [18]", got)
	}
	if got := m.Wpkl(4, 2, 3); len(got) != 1 || got[0] != 6 {
		t.Fatalf("W_{4,2,3} = %v, want [6]", got)
	}
}

func TestPaperComponentsMatchBitForm(t *testing.T) {
	// The literal pipeline (reverse → Σ2^j x_j y_{i−j} → reverse → π_{σ,0})
	// must produce exactly the bit-operation components for every period.
	for _, text := range []string{"acccabb", "abcabbabcb", "cabccbacd", "aaaa", "ab"} {
		s := series.FromString(text)
		m := Map(s)
		lit := PaperComponents(s)
		for p := 1; p < s.Len(); p++ {
			if lit[p].Cmp(m.ComponentInt(p)) != 0 {
				t.Fatalf("T=%s p=%d: literal %v != bit form %v", text, p, lit[p], m.ComponentInt(p))
			}
		}
	}
}

func TestPaperComponentsMatchBitFormRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(30) + 2
		sigma := rng.Intn(4) + 2
		idx := make([]uint16, n)
		for i := range idx {
			idx[i] = uint16(rng.Intn(sigma))
		}
		s := series.FromIndices(alphabet.Letters(sigma), idx)
		m := Map(s)
		lit := PaperComponents(s)
		for p := 1; p < n; p++ {
			if lit[p].Cmp(m.ComponentInt(p)) != 0 {
				t.Fatalf("T=%s p=%d: literal != bit form", s, p)
			}
		}
	}
}

func TestWpklCardinalityEqualsF2(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		n := rng.Intn(60) + 5
		sigma := rng.Intn(3) + 2
		idx := make([]uint16, n)
		for i := range idx {
			idx[i] = uint16(rng.Intn(sigma))
		}
		s := series.FromIndices(alphabet.Letters(sigma), idx)
		m := Map(s)
		for p := 1; p <= n/2; p++ {
			for k := 0; k < sigma; k++ {
				for l := 0; l < p; l++ {
					if got, want := len(m.Wpkl(p, k, l)), s.F2(k, p, l); got != want {
						t.Fatalf("T=%s |W_{%d,%d,%d}| = %d, want F2 = %d", s, p, k, l, got, want)
					}
				}
			}
		}
	}
}

func TestDecodeEncodePowerRoundTrip(t *testing.T) {
	f := func(kRaw, iRaw, sRaw, pRaw uint8) bool {
		sigma := int(sRaw)%8 + 1
		k := int(kRaw) % sigma
		p := int(pRaw)%50 + 1
		n := 200
		i := int(iRaw) % (n - p)
		w := EncodePower(k, i, sigma, n, p)
		dk, di, dl := DecodePower(w, sigma, n, p)
		return dk == k && di == i && dl == i%p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchSetMatchesDefinition(t *testing.T) {
	s := series.FromString("abcabbabcb")
	ind := NewIndicators(s)
	b, _ := s.Alphabet().Index("b")
	// b at positions 1,4,5,7,9: lag-3 matches start at 1 (1,4) and 4 (4,7).
	ms := ind.MatchSet(b, 3, nil)
	if ms.Count() != 2 || !ms.Get(1) || !ms.Get(4) {
		t.Fatalf("MatchSet(b,3) = %s", ms)
	}
}

func TestF2CountsMatchSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	idx := make([]uint16, 300)
	for i := range idx {
		idx[i] = uint16(rng.Intn(5))
	}
	s := series.FromIndices(alphabet.Letters(5), idx)
	ind := NewIndicators(s)
	for p := 1; p <= 40; p++ {
		for k := 0; k < 5; k++ {
			counts := ind.F2Counts(k, p, nil)
			for l := 0; l < p; l++ {
				if want := s.F2(k, p, l); counts[l] != want {
					t.Fatalf("F2Counts(%d,%d)[%d] = %d, want %d", k, p, l, counts[l], want)
				}
			}
		}
	}
}

func TestLagMatchCountsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 5; trial++ {
		n := rng.Intn(300) + 10
		sigma := rng.Intn(5) + 2
		idx := make([]uint16, n)
		for i := range idx {
			idx[i] = uint16(rng.Intn(sigma))
		}
		s := series.FromIndices(alphabet.Letters(sigma), idx)
		fftCounts := LagMatchCounts(s)
		naive := LagMatchCountsNaive(s)
		for k := 0; k < sigma; k++ {
			for p := 0; p < n; p++ {
				if fftCounts[k][p] != naive[k][p] {
					t.Fatalf("n=%d σ=%d: r_%d(%d) fft=%d naive=%d", n, sigma, k, p, fftCounts[k][p], naive[k][p])
				}
			}
		}
	}
}

// lagCountsExec runs LagMatchCountsExec on its own scheduler with the given
// worker count (0 means GOMAXPROCS) and the shared plan cache.
func lagCountsExec(t testing.TB, s *series.Series, workers int) [][]int64 {
	t.Helper()
	out, err := LagMatchCountsExec(s, exec.New(exec.Config{Workers: workers}), workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestLagMatchCountsParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	idx := make([]uint16, 700)
	for i := range idx {
		idx[i] = uint16(rng.Intn(6))
	}
	s := series.FromIndices(alphabet.Letters(6), idx)
	want := LagMatchCounts(s)
	for _, workers := range []int{0, 1, 2, 16} {
		got := lagCountsExec(t, s, workers)
		for k := range want {
			for p := range want[k] {
				if got[k][p] != want[k][p] {
					t.Fatalf("workers=%d: r_%d(%d) = %d, want %d", workers, k, p, got[k][p], want[k][p])
				}
			}
		}
	}
}

func TestModifiedConvolutionSmall(t *testing.T) {
	// a = [1,1], b = [1,0]: z_0 = 2^0·a0·b0 = 1; z_1 = 2^0·a0·b1 + 2^1·a1·b0 = 2.
	z := ModifiedConvolution([]uint8{1, 1}, []uint8{1, 0})
	if z[0].Int64() != 1 || z[1].Int64() != 2 {
		t.Fatalf("z = [%v %v], want [1 2]", z[0], z[1])
	}
}

func TestModifiedConvolutionLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch: want panic")
		}
	}()
	ModifiedConvolution([]uint8{1}, []uint8{1, 0})
}

func TestComponentOutOfRangePanics(t *testing.T) {
	m := Map(series.FromString("abc"))
	defer func() {
		if recover() == nil {
			t.Fatal("Component(3) on n=3: want panic")
		}
	}()
	m.Component(3, nil)
}

func TestUnmodifiedMatchCountViaWp(t *testing.T) {
	// Paper: for T = acccabb, comparing T to T(1) yields 3 matches.
	s := series.FromString("acccabb")
	m := Map(s)
	if got := len(m.Wp(1)); got != 3 {
		t.Fatalf("|W_1| = %d, want 3", got)
	}
	var lag1 int64
	for _, r := range LagMatchCounts(s) {
		lag1 += r[1]
	}
	if lag1 != 3 {
		t.Fatalf("lag-1 matches from LagMatchCounts = %d, want 3", lag1)
	}
}

// TestLagMatchCountsBatchedMatchesPerSymbol pins the driver that runs every
// symbol through one shared plan against independent per-symbol FFT
// autocorrelations and the naive quadratic count: all three must agree
// bit-for-bit on randomized series, at every worker count and for odd and
// even alphabet sizes.
func TestLagMatchCountsBatchedMatchesPerSymbol(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, sigma := range []int{1, 2, 3, 5, 8} {
		n := rng.Intn(400) + 50
		idx := make([]uint16, n)
		for i := range idx {
			idx[i] = uint16(rng.Intn(sigma))
		}
		s := series.FromIndices(alphabet.Letters(sigma), idx)
		naive := LagMatchCountsNaive(s)
		perSymbol := make([][]int64, sigma)
		for k := 0; k < sigma; k++ {
			perSymbol[k] = fft.AutocorrelateCounts(s.Indicator(k))
		}
		for _, workers := range []int{0, 1, 2, 3, 16} {
			got := lagCountsExec(t, s, workers)
			for k := 0; k < sigma; k++ {
				for p := 0; p < n; p++ {
					if got[k][p] != perSymbol[k][p] {
						t.Fatalf("σ=%d workers=%d: r_%d(%d) batched=%d per-symbol=%d",
							sigma, workers, k, p, got[k][p], perSymbol[k][p])
					}
					if got[k][p] != naive[k][p] {
						t.Fatalf("σ=%d workers=%d: r_%d(%d) batched=%d naive=%d",
							sigma, workers, k, p, got[k][p], naive[k][p])
					}
				}
			}
		}
	}
}

// TestLagMatchCountsBatchedDegenerate covers empty series and σ larger than
// the worker count.
func TestLagMatchCountsBatchedDegenerate(t *testing.T) {
	s := series.FromIndices(alphabet.Letters(3), nil)
	out := lagCountsExec(t, s, 4)
	if len(out) != 3 {
		t.Fatalf("empty series: %d rows, want 3", len(out))
	}
	for k, row := range out {
		if len(row) != 0 {
			t.Fatalf("empty series: row %d has length %d", k, len(row))
		}
	}
}

// FuzzLagMatchCountsBatched cross-checks the batched driver's counts
// against the naive quadratic form on fuzz-generated series.
func FuzzLagMatchCountsBatched(f *testing.F) {
	f.Add([]byte("abcabbabcb"), uint8(3))
	f.Add([]byte{0, 1, 2, 3, 4, 0, 1, 2, 3, 4}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, workers uint8) {
		if len(data) == 0 || len(data) > 512 {
			t.Skip()
		}
		sigma := 0
		idx := make([]uint16, len(data))
		for i, b := range data {
			k := int(b) % 8
			idx[i] = uint16(k)
			if k+1 > sigma {
				sigma = k + 1
			}
		}
		s := series.FromIndices(alphabet.Letters(sigma), idx)
		got := lagCountsExec(t, s, int(workers)%5)
		want := LagMatchCountsNaive(s)
		for k := range want {
			for p := range want[k] {
				if got[k][p] != want[k][p] {
					t.Fatalf("r_%d(%d) = %d, want %d", k, p, got[k][p], want[k][p])
				}
			}
		}
	})
}

// TestLagMatchCountsInnerParallelBitIdentical gives the driver more workers
// than symbols, so the leftover workers split each transform's butterflies
// across goroutines, and requires counts bit-identical to the serial run and
// exactly equal to the quadratic reference.
func TestLagMatchCountsInnerParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// Two symbols; the full-lag driver runs n = 8200 as one block of 2^14
	// samples (BandSize(8200, 8199) = 2^15), whose half-size transforms of
	// 2^14 points take the parallel butterfly path at workers = 4 (two
	// workers per symbol); workers 2 and 3 leave one worker per symbol.
	// The multi-block path with parallel butterflies is covered by
	// TestLagMatchCountsBandBitIdenticalAcrossWorkers.
	idx := make([]uint16, 8200)
	for i := range idx {
		idx[i] = uint16(rng.Intn(2))
	}
	s := series.FromIndices(alphabet.Letters(2), idx)
	want := LagMatchCounts(s)
	naive := LagMatchCountsNaive(s)
	for k := range want {
		for p := range want[k] {
			if want[k][p] != naive[k][p] {
				t.Fatalf("serial r_%d(%d) = %d, naive %d", k, p, want[k][p], naive[k][p])
			}
		}
	}
	for _, workers := range []int{2, 3, 4} {
		got := lagCountsExec(t, s, workers)
		for k := range want {
			for p := range want[k] {
				if got[k][p] != want[k][p] {
					t.Fatalf("workers=%d: r_%d(%d) = %d, want %d", workers, k, p, got[k][p], want[k][p])
				}
			}
		}
	}
}

// lagCountsBand runs LagMatchCountsBand on its own scheduler with the given
// worker count (0 means GOMAXPROCS) and the shared plan cache.
func lagCountsBand(t testing.TB, s *series.Series, maxLag, workers int) [][]int64 {
	t.Helper()
	out, err := LagMatchCountsBand(s, maxLag, exec.New(exec.Config{Workers: workers}), workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// randomSeries draws n symbols uniformly from an alphabet of sigma.
func randomSeries(rng *rand.Rand, n, sigma int) *series.Series {
	idx := make([]uint16, n)
	for i := range idx {
		idx[i] = uint16(rng.Intn(sigma))
	}
	return series.FromIndices(alphabet.Letters(sigma), idx)
}

// TestLagMatchCountsBandMatchesNaive pins the band driver exactly to the
// quadratic reference: every row holds lags 0..L and equals the naive counts
// there, across lengths around the block boundaries, lag bands from one lag
// to the whole series, and alphabets of 1 to 10 symbols.
func TestLagMatchCountsBandMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{1, 2, 3, 5, 63, 64, 65, 1000, 1024, 1025, 4097} {
		for _, sigma := range []int{1, 2, 5, 10} {
			s := randomSeries(rng, n, sigma)
			naive := LagMatchCountsNaive(s)
			for _, maxLag := range []int{1, 2, 63, 64, 65, n / 2, n - 1} {
				if maxLag >= n {
					continue
				}
				got := lagCountsBand(t, s, maxLag, 1)
				for k := range naive {
					if len(got[k]) != maxLag+1 {
						t.Fatalf("n=%d σ=%d L=%d: row %d holds %d lags", n, sigma, maxLag, k, len(got[k]))
					}
					for p, r := range got[k] {
						if r != naive[k][p] {
							t.Fatalf("n=%d σ=%d L=%d: r_%d(%d) = %d, naive %d", n, sigma, maxLag, k, p, r, naive[k][p])
						}
					}
				}
			}
		}
	}
}

// TestLagMatchCountsBandBitIdenticalAcrossWorkers requires the band counts
// to be bit-identical at one worker, two and GOMAXPROCS, and equal to the
// one-block counts of the full-lag driver. With one symbol at n = 2^17 the
// spare workers go to the butterflies of 2^16-point transforms, which run
// in parallel; with five symbols and a 300-lag band they go to symbols.
func TestLagMatchCountsBandBitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	cases := []struct {
		s      *series.Series
		maxLag int
	}{
		{randomSeries(rng, 1<<17, 1), 1 << 16},
		{randomSeries(rng, 1<<15, 5), 300},
	}
	for _, tc := range cases {
		full := LagMatchCounts(tc.s)
		for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			got := lagCountsBand(t, tc.s, tc.maxLag, workers)
			for k := range full {
				for p, r := range got[k] {
					if r != full[k][p] {
						t.Fatalf("n=%d workers=%d: r_%d(%d) = %d, one block %d",
							tc.s.Len(), workers, k, p, r, full[k][p])
					}
				}
			}
		}
	}
}
