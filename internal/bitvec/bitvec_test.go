package bitvec

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func randomVector(rng *rand.Rand, n int, density float64) *Vector {
	v := New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			v.Set(i)
		}
	}
	return v
}

func TestSetGet(t *testing.T) {
	v := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if v.Get(i) {
			t.Errorf("bit %d set in fresh vector", i)
		}
		v.Set(i)
		if !v.Get(i) {
			t.Errorf("bit %d not set after Set", i)
		}
	}
}

func TestCount(t *testing.T) {
	v := New(200)
	for i := 0; i < 200; i += 3 {
		v.Set(i)
	}
	if got, want := v.Count(), 67; got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	v := New(10)
	for _, fn := range []func(){
		func() { v.Get(10) },
		func() { v.Set(-1) },
		func() { v.Set(10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range access: want panic")
				}
			}()
			fn()
		}()
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1): want panic")
		}
	}()
	New(-1)
}

// andShiftNaive is the definitional form: bit i set iff bits i and i+p set.
func andShiftNaive(v *Vector, p int) *Vector {
	out := New(v.Len())
	for i := 0; i+p < v.Len(); i++ {
		if v.Get(i) && v.Get(i+p) {
			out.Set(i)
		}
	}
	return out
}

func TestAndShiftRightMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 7, 63, 64, 65, 129, 1000} {
		v := randomVector(rng, n, 0.4)
		for _, p := range []int{0, 1, 2, 63, 64, 65, n - 1, n, n + 5} {
			if p < 0 {
				continue
			}
			got := v.AndShiftRight(p, nil)
			want := andShiftNaive(v, p)
			if !got.Equal(want) {
				t.Fatalf("n=%d p=%d: AndShiftRight mismatch\n got %s\nwant %s", n, p, got, want)
			}
		}
	}
}

func TestAndShiftRightReusesDst(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	v := randomVector(rng, 300, 0.5)
	dst := New(300)
	got := v.AndShiftRight(7, dst)
	if got != dst {
		t.Fatal("AndShiftRight did not reuse matching dst")
	}
	if !got.Equal(andShiftNaive(v, 7)) {
		t.Fatal("AndShiftRight with dst: wrong bits")
	}
	// A wrong-sized dst must be replaced, not written out of bounds.
	small := New(10)
	got = v.AndShiftRight(7, small)
	if got == small || got.Len() != 300 {
		t.Fatal("AndShiftRight did not reallocate wrong-sized dst")
	}
}

func TestAndShiftRightNegativePanics(t *testing.T) {
	v := New(8)
	defer func() {
		if recover() == nil {
			t.Fatal("negative shift: want panic")
		}
	}()
	v.AndShiftRight(-1, nil)
}

func TestAppendGrows(t *testing.T) {
	v := New(0)
	pattern := []bool{true, false, true, true, false}
	for i := 0; i < 200; i++ {
		v.Append(pattern[i%len(pattern)])
	}
	if v.Len() != 200 {
		t.Fatalf("Len = %d, want 200", v.Len())
	}
	for i := 0; i < 200; i++ {
		if v.Get(i) != pattern[i%len(pattern)] {
			t.Fatalf("bit %d = %v after Append", i, v.Get(i))
		}
	}
	if want := 200 / 5 * 3; v.Count() != want {
		t.Fatalf("Count = %d, want %d", v.Count(), want)
	}
}

func TestForEachOrderAndCompleteness(t *testing.T) {
	v := New(150)
	want := []int{0, 5, 63, 64, 100, 149}
	for _, i := range want {
		v.Set(i)
	}
	var got []int
	v.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d bits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order: got %v, want %v", got, want)
		}
	}
}

func TestCountMod(t *testing.T) {
	v := New(20)
	for _, i := range []int{0, 3, 6, 7, 13} {
		v.Set(i)
	}
	counts := v.CountMod(3)
	// residues: 0,0,0,1,1 -> l=0:3, l=1:2, l=2:0
	if counts[0] != 3 || counts[1] != 2 || counts[2] != 0 {
		t.Fatalf("CountMod(3) = %v, want [3 2 0]", counts)
	}
}

func TestCountModSumsToCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := randomVector(rng, 500, 0.3)
	for _, p := range []int{1, 2, 7, 64, 499} {
		sum := 0
		for _, c := range v.CountMod(p) {
			sum += c
		}
		if sum != v.Count() {
			t.Fatalf("p=%d: CountMod sums to %d, want %d", p, sum, v.Count())
		}
	}
}

// lagPhasesNaive is the definition the lag kernels are checked against:
// counts[l] tallies the i ≡ l (mod p) whose bits i and i+p are both set.
func lagPhasesNaive(v *Vector, p int) []int {
	counts := make([]int, p)
	for i := 0; i+p < v.Len(); i++ {
		if v.Get(i) && v.Get(i+p) {
			counts[i%p]++
		}
	}
	return counts
}

// checkLagKernels compares AddLagPhases, which adds onto whatever counts
// holds, and CountLagMatches with the definition at one (v, p).
func checkLagKernels(t *testing.T, v *Vector, p int) {
	t.Helper()
	want := lagPhasesNaive(v, p)
	got := make([]int, p+1)
	for l := range got {
		got[l] = l // the kernel adds; it must not overwrite
	}
	if !v.AddLagPhases(p, got, [2]int{}) {
		t.Fatalf("n=%d p=%d: AddLagPhases stopped under need {0, 0}", v.Len(), p)
	}
	total := 0
	for l, w := range want {
		if got[l]-l != w {
			t.Fatalf("n=%d p=%d: AddLagPhases phase %d = %d, want %d", v.Len(), p, l, got[l]-l, w)
		}
		total += w
	}
	if got[p] != p {
		t.Fatalf("n=%d p=%d: AddLagPhases wrote past counts[:p]", v.Len(), p)
	}
	if c := v.CountLagMatches(p); c != total {
		t.Fatalf("n=%d p=%d: CountLagMatches = %d, want %d", v.Len(), p, c, total)
	}
}

func TestLagKernelsMatchDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 3, 63, 64, 65, 100, 127, 128, 129, 191, 500, 1000} {
		for _, density := range []float64{0.05, 0.3, 1} {
			v := randomVector(rng, n, density)
			for _, p := range []int{1, 2, 63, 64, 65, 127, 128, n - 1, n, n + 1} {
				if p < 1 {
					continue
				}
				checkLagKernels(t, v, p)
				q := n / p
				for _, need := range [][2]int{{1, 1}, {(q + 1) / 2, q / 2}, {q, q - 1}, {math.MaxInt, q / 2}, {q/2 + 1, math.MaxInt}} {
					checkBoundedLagPhases(t, v, p, need)
				}
			}
		}
	}
}

func TestAddLagPhasesInvalidPanics(t *testing.T) {
	for _, c := range []struct{ p, counts int }{{0, 4}, {-1, 4}, {5, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("AddLagPhases(%d) with %d counts: want panic", c.p, c.counts)
				}
			}()
			New(8).AddLagPhases(c.p, make([]int, c.counts), [2]int{})
		}()
	}
}

// checkBoundedLagPhases runs AddLagPhases on a zeroed row under need,
// whose group 0 is the phases l < n mod p and group 1 the rest. A completed
// row must equal the definition; an abandoned one must have no phase whose
// definitional count reaches its group's need. When p divides n, group 0
// holds no phase, so its need must change nothing: need[0] = 0, which never
// fires, must give the same row and answer as need[0] = math.MaxInt.
func checkBoundedLagPhases(t *testing.T, v *Vector, p int, need [2]int) {
	t.Helper()
	n := v.Len()
	want := lagPhasesNaive(v, p)
	got := make([]int, p)
	done := v.AddLagPhases(p, got, need)
	if n%p == 0 {
		for _, need0 := range []int{0, math.MaxInt} {
			alt := make([]int, p)
			if v.AddLagPhases(p, alt, [2]int{need0, need[1]}) != done || !slices.Equal(alt, got) {
				t.Fatalf("n=%d p=%d need %v: need[0] = %d changed the row, yet p divides n", n, p, need, need0)
			}
		}
	}
	if done {
		for l, w := range want {
			if got[l] != w {
				t.Fatalf("n=%d p=%d need %v: completed row phase %d = %d, want %d", n, p, need, l, got[l], w)
			}
		}
		return
	}
	for l, w := range want {
		g := 0
		if l >= n%p {
			g = 1
		}
		if w >= need[g] {
			t.Fatalf("n=%d p=%d need %v: row abandoned, yet phase %d reaches %d ≥ %d", n, p, need, l, w, need[g])
		}
	}
}

// FuzzLagPhases checks both lag kernels against the definition on arbitrary
// bit patterns, lengths and periods, the phase kernel under needs drawn
// from the input (a completed row is exact, an abandoned row has no phase
// that meets its need), and that the phase kernel allocates nothing.
func FuzzLagPhases(f *testing.F) {
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f}, uint8(3), uint16(1), uint8(0), uint8(0))
	f.Add([]byte("periodic periodic periodic periodic"), uint8(0), uint16(8), uint8(3), uint8(2))
	f.Add(make([]byte, 40), uint8(7), uint16(64), uint8(1), uint8(1))
	f.Add([]byte{0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55}, uint8(1), uint16(2), uint8(250), uint8(20))
	f.Fuzz(func(t *testing.T, data []byte, trim uint8, shift uint16, need0, need1 uint8) {
		n := len(data)*8 - int(trim%8)
		if n < 1 || n > 1<<14 {
			return
		}
		v := New(n)
		for i := 0; i < n; i++ {
			if data[i/8]&(1<<uint(i%8)) != 0 {
				v.Set(i)
			}
		}
		p := 1 + int(shift)%(n+1)
		checkLagKernels(t, v, p)
		// Needs run from 0 (never stops) past the pair counts (no phase
		// can complete), and math.MaxInt marks a group that cannot qualify.
		needOf := func(b uint8, pairs int) int {
			if b == 255 {
				return math.MaxInt
			}
			return int(b) % (pairs + 3)
		}
		need := [2]int{needOf(need0, n/p), needOf(need1, n/p-1)}
		checkBoundedLagPhases(t, v, p, need)
		counts := make([]int, p)
		if a := testing.AllocsPerRun(2, func() { v.AddLagPhases(p, counts, need) }); a != 0 {
			t.Fatalf("n=%d p=%d: AddLagPhases allocates %.1f times per run", n, p, a)
		}
	})
}

func TestCountModInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CountMod(0): want panic")
		}
	}()
	New(8).CountMod(0)
}

func TestAndOr(t *testing.T) {
	a, b := New(100), New(100)
	a.Set(1)
	a.Set(70)
	b.Set(70)
	b.Set(99)
	and := a.And(b, nil)
	if and.Count() != 1 || !and.Get(70) {
		t.Fatalf("And: got %s", and)
	}
	or := a.Or(b, nil)
	if or.Count() != 3 || !or.Get(1) || !or.Get(70) || !or.Get(99) {
		t.Fatalf("Or: got %s", or)
	}
}

func TestAndLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("And length mismatch: want panic")
		}
	}()
	New(8).And(New(9), nil)
}

func TestCloneIsIndependent(t *testing.T) {
	v := New(64)
	v.Set(5)
	c := v.Clone()
	c.Set(6)
	if v.Get(6) {
		t.Fatal("Clone shares storage with original")
	}
	if !c.Get(5) {
		t.Fatal("Clone lost bit 5")
	}
}

func TestIntRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 64, 65, 130} {
		v := randomVector(rng, n, 0.5)
		z := v.Int()
		back := New(n)
		for i := 0; i < n; i++ {
			if z.Bit(i) == 1 {
				back.Set(i)
			}
		}
		if !v.Equal(back) {
			t.Fatalf("n=%d: Int round trip failed", n)
		}
	}
}

func TestIntMatchesBitPositions(t *testing.T) {
	v := New(70)
	v.Set(0)
	v.Set(69)
	want := new(big.Int).SetBit(new(big.Int).SetInt64(1), 69, 1)
	if v.Int().Cmp(want) != 0 {
		t.Fatalf("Int = %v, want %v", v.Int(), want)
	}
}

func TestStringMSBFirst(t *testing.T) {
	v := New(4)
	v.Set(0) // least significant -> rightmost character
	v.Set(3)
	if got := v.String(); got != "1001" {
		t.Fatalf("String = %q, want 1001", got)
	}
}

func TestEqualDifferentLengths(t *testing.T) {
	if New(5).Equal(New(6)) {
		t.Fatal("vectors of different length reported equal")
	}
}

func TestAndShiftRightProperty(t *testing.T) {
	f := func(words []uint64, shift uint16) bool {
		if len(words) == 0 {
			return true
		}
		if len(words) > 16 {
			words = words[:16]
		}
		n := len(words) * 64
		v := New(n)
		for i := 0; i < n; i++ {
			if words[i/64]&(1<<uint(i%64)) != 0 {
				v.Set(i)
			}
		}
		p := int(shift) % (n + 2)
		return v.AndShiftRight(p, nil).Equal(andShiftNaive(v, p))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// CountMod returns counts[l] = number of set bits at indices i with
// i mod p == l, for l in [0,p). This yields the per-phase match counts
// F2(s, π_{p,l}(T)) from a lag-p match vector.
func (v *Vector) CountMod(p int) []int {
	if p <= 0 {
		panic(fmt.Sprintf("bitvec: non-positive modulus %d", p))
	}
	counts := make([]int, p)
	v.ForEach(func(i int) { counts[i%p]++ })
	return counts
}
