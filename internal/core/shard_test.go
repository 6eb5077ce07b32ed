package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"periodica/internal/exec"
	"periodica/internal/series"
)

// shardFixture builds a noisy period-7 series over {a,b,c}, the same shape
// the root parity suite uses.
func shardFixture(n int) *series.Series {
	motif := "abacbbc"
	alpha := "abc"
	rng := rand.New(rand.NewSource(7))
	var b strings.Builder
	for i := 0; i < n; i++ {
		c := motif[i%len(motif)]
		if rng.Intn(5) == 0 {
			c = alpha[rng.Intn(len(alpha))]
		}
		b.WriteByte(c)
	}
	return series.FromString(b.String())
}

// shardBand slices the coordinator's survivor set to one shard's period band
// and clips each list to its symbol range, exactly as the dist coordinator
// ships it.
func shardBand(surv [][]int32, sh exec.Shard, minPeriod int) [][]int32 {
	band := make([][]int32, 0, sh.MaxPeriod-sh.MinPeriod+1)
	for p := sh.MinPeriod; p <= sh.MaxPeriod; p++ {
		var clipped []int32
		for _, k := range surv[p-minPeriod] {
			if int(k) >= sh.SymbolLo && int(k) < sh.SymbolHi {
				clipped = append(clipped, k)
			}
		}
		band = append(band, clipped)
	}
	return band
}

// mineViaShards cuts the normalized option range into a plan, sweeps once,
// resolves every shard's slots from its shipped survivors, and reassembles —
// the distributed pipeline without the network.
func mineViaShards(t *testing.T, s *series.Series, opt Options, target int) *Result {
	t.Helper()
	norm, err := NormalizeOptions(opt, s.Len())
	if err != nil {
		t.Fatal(err)
	}
	plan := exec.PlanShards(s.Alphabet().Size(), norm.MinPeriod, norm.MaxPeriod, target)
	if len(plan) == 0 {
		t.Fatal("empty shard plan")
	}
	surv, err := ShardSurvivors(context.Background(), s, norm)
	if err != nil {
		t.Fatal(err)
	}
	var slots []SymbolPeriodicity
	for _, sh := range plan {
		shardOpt := norm
		shardOpt.MinPeriod, shardOpt.MaxPeriod = sh.MinPeriod, sh.MaxPeriod
		part, err := MineShardSlotsFromSurvivors(context.Background(), s, shardOpt,
			sh.SymbolLo, sh.SymbolHi, shardBand(surv, sh, norm.MinPeriod))
		if err != nil {
			t.Fatalf("shard %d: %v", sh.ID, err)
		}
		slots = append(slots, part...)
	}
	res, err := AssembleFromSlots(context.Background(), s, norm, slots)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShardUnionMatchesMine: any shard plan must reassemble to the exact
// single-process Result, for every engine.
func TestShardUnionMatchesMine(t *testing.T) {
	for _, n := range []int{605, 5000} {
		s := shardFixture(n)
		for _, eng := range []Engine{EngineAuto, EngineNaive, EngineBitset, EngineFFT} {
			if eng == EngineNaive && n > 1000 {
				continue // quadratic reference stays on the small input
			}
			opt := Options{Threshold: 0.6, Engine: eng, MinPairs: 3, MaxPatternPeriod: 21}
			want, err := mine(s, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Periodicities) == 0 {
				t.Fatal("fixture detected nothing; the test is vacuous")
			}
			for _, target := range []int{1, 3, 7, 16} {
				got := mineViaShards(t, s, opt, target)
				if !reflect.DeepEqual(want, got) {
					t.Errorf("n=%d engine=%v target=%d: sharded result differs from Mine", n, eng, target)
				}
			}
		}
	}
}

// TestShardSymbolSplit: plans that split the symbol dimension (more shards
// than candidate periods) must still reassemble exactly.
func TestShardSymbolSplit(t *testing.T) {
	s := shardFixture(605)
	opt := Options{Threshold: 0.6, MinPeriod: 6, MaxPeriod: 8, MinPairs: 3, MaxPatternPeriod: 21}
	want, err := mine(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Periodicities) == 0 {
		t.Fatal("fixture detected nothing in [6,8]; the test is vacuous")
	}
	got := mineViaShards(t, s, opt, 9) // 3 periods × 3 symbols
	if !reflect.DeepEqual(want, got) {
		t.Error("symbol-split sharded result differs from Mine")
	}
}

// emptyBand is a well-formed survivor set with no survivors, spanning opt's
// normalized period band over s.
func emptyBand(t *testing.T, s *series.Series, opt Options) (Options, [][]int32) {
	t.Helper()
	norm, err := NormalizeOptions(opt, s.Len())
	if err != nil {
		t.Fatal(err)
	}
	return norm, make([][]int32, norm.MaxPeriod-norm.MinPeriod+1)
}

func TestMineShardSlotsValidates(t *testing.T) {
	s := shardFixture(100)
	norm, band := emptyBand(t, s, Options{Threshold: 0.6})
	for _, r := range [][2]int{{-1, 2}, {0, 4}, {2, 2}, {2, 1}} {
		if _, err := MineShardSlotsFromSurvivors(context.Background(), s, norm, r[0], r[1], band); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("symbol range %v: err = %v, want ErrInvalidInput", r, err)
		}
	}
}

func TestMineShardSlotsCancellation(t *testing.T) {
	s := shardFixture(5000)
	norm, band := emptyBand(t, s, Options{Threshold: 0.6})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MineShardSlotsFromSurvivors(ctx, s, norm, 0, 3, band); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestAssembleFromSlotsRejectsBadSlots(t *testing.T) {
	s := shardFixture(100)
	opt := Options{Threshold: 0.6}
	good := SymbolPeriodicity{Symbol: 0, Period: 7, Position: 2, F2: 9, Pairs: 13}
	// Other valid cells, one on each side of good in canonical order.
	before := SymbolPeriodicity{Symbol: 1, Period: 5, Position: 0, F2: 1, Pairs: 2}
	after := SymbolPeriodicity{Symbol: 2, Period: 9, Position: 3, F2: 4, Pairs: 9}
	recount := good
	recount.F2, recount.Pairs = 8, 12
	cases := map[string][]SymbolPeriodicity{
		"symbol out of range":   {{Symbol: 9, Period: 7, Position: 0, F2: 1, Pairs: 2}},
		"period out of range":   {{Symbol: 0, Period: 99, Position: 0, F2: 1, Pairs: 2}},
		"position out of range": {{Symbol: 0, Period: 7, Position: 7, F2: 1, Pairs: 2}},
		"zero F2":               {{Symbol: 0, Period: 7, Position: 0, F2: 0, Pairs: 2}},
		"F2 above pairs":        {{Symbol: 0, Period: 7, Position: 0, F2: 3, Pairs: 2}},
		"duplicate":             {good, good},
		// Adjacent only once sorted.
		"separated duplicate": {good, after, before, good},
		// The cell repeats; its counts do not.
		"duplicate cell, other counts": {before, good, after, recount},
	}
	for name, slots := range cases {
		if _, err := AssembleFromSlots(context.Background(), s, opt, slots); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%s: err = %v, want ErrInvalidInput", name, err)
		}
	}
}

// TestShardSurvivorsShippedPathMatches: for every shard of a plan, mining
// from the coordinator's shipped survivor slice must produce exactly the
// single-process mine's periodicities in that shard's cells, and the shards
// together must cover all of them, so candidate shipping can never change a
// mine's bytes.
func TestShardSurvivorsShippedPathMatches(t *testing.T) {
	s := shardFixture(605)
	opt := Options{Threshold: 0.6, MinPairs: 3, MaxPatternPeriod: 21}
	norm, err := NormalizeOptions(opt, s.Len())
	if err != nil {
		t.Fatal(err)
	}
	single, err := mine(s, norm)
	if err != nil {
		t.Fatal(err)
	}
	surv, err := ShardSurvivors(context.Background(), s, norm)
	if err != nil {
		t.Fatal(err)
	}
	if len(surv) != norm.MaxPeriod-norm.MinPeriod+1 {
		t.Fatalf("survivor set spans %d periods, want %d", len(surv), norm.MaxPeriod-norm.MinPeriod+1)
	}
	if len(single.Periodicities) == 0 {
		t.Fatal("no periodicities anywhere; the test is vacuous")
	}
	byCell := func(a []SymbolPeriodicity) {
		sort.Slice(a, func(i, j int) bool {
			x, y := a[i], a[j]
			if x.Period != y.Period {
				return x.Period < y.Period
			}
			if x.Symbol != y.Symbol {
				return x.Symbol < y.Symbol
			}
			return x.Position < y.Position
		})
	}
	covered := 0
	plan := exec.PlanShards(s.Alphabet().Size(), norm.MinPeriod, norm.MaxPeriod, 9)
	for _, sh := range plan {
		shardOpt := norm
		shardOpt.MinPeriod, shardOpt.MaxPeriod = sh.MinPeriod, sh.MaxPeriod
		var want []SymbolPeriodicity
		for _, sp := range single.Periodicities {
			if sp.Symbol >= sh.SymbolLo && sp.Symbol < sh.SymbolHi &&
				sp.Period >= sh.MinPeriod && sp.Period <= sh.MaxPeriod {
				want = append(want, sp)
			}
		}
		got, err := MineShardSlotsFromSurvivors(context.Background(), s, shardOpt,
			sh.SymbolLo, sh.SymbolHi, shardBand(surv, sh, norm.MinPeriod))
		if err != nil {
			t.Fatalf("shard %d shipped: %v", sh.ID, err)
		}
		byCell(want)
		byCell(got)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("shard %d: shipped-survivor slots differ from the single-process periodicities", sh.ID)
		}
		covered += len(got)
	}
	if covered != len(single.Periodicities) {
		t.Errorf("shards resolved %d periodicities, single-process mine has %d", covered, len(single.Periodicities))
	}
}

// TestShardSurvivorsEngines: the coordinator's survivor lists must be the
// sweep a full mine runs, whichever engine prunes. The FFT sweep reads only
// the lag counts, so ShardSurvivors builds no indicator vectors for it; the
// lists must not move for that, and must equal the bitset sweep's.
func TestShardSurvivorsEngines(t *testing.T) {
	for _, n := range []int{605, 5000} {
		s := shardFixture(n)
		var lists [][][]int32
		for _, eng := range []Engine{EngineBitset, EngineFFT} {
			norm, err := NormalizeOptions(Options{Threshold: 0.6, MinPairs: 3, Engine: eng}, s.Len())
			if err != nil {
				t.Fatal(err)
			}
			got, err := ShardSurvivors(context.Background(), s, norm)
			if err != nil {
				t.Fatal(err)
			}
			ses, err := newSession(s, norm, sessionConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if err := ses.runPipeline(memoryDetect{}, sweepPeriods{}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, ses.surv) {
				t.Fatalf("n=%d %v: ShardSurvivors differs from the full detect and sweep", n, eng)
			}
			lists = append(lists, got)
		}
		if !reflect.DeepEqual(lists[0], lists[1]) {
			t.Fatalf("n=%d: bitset and FFT survivor lists differ", n)
		}
		if slices.IndexFunc(lists[0], func(l []int32) bool { return len(l) > 0 }) < 0 {
			t.Fatalf("n=%d: no survivors anywhere; the test is vacuous", n)
		}
	}
}

func TestMineShardSlotsFromSurvivorsValidates(t *testing.T) {
	s := shardFixture(100)
	norm, err := NormalizeOptions(Options{Threshold: 0.6, MinPeriod: 5, MaxPeriod: 7}, s.Len())
	if err != nil {
		t.Fatal(err)
	}
	ok := [][]int32{{0, 1}, {1}, {}}
	cases := map[string][][]int32{
		"wrong span":          {{0}, {1}},
		"symbol out of range": {{0, 3}, {}, {}},
		"below shard lo":      {{0}, {}, {}}, // with symLo=1 below
		"out of order":        {{1, 0}, {}, {}},
		"duplicate symbol":    {{0, 0}, {}, {}},
	}
	if _, err := MineShardSlotsFromSurvivors(context.Background(), s, norm, 0, 3, ok); err != nil {
		t.Fatalf("valid survivor set rejected: %v", err)
	}
	for name, surv := range cases {
		lo := 0
		if name == "below shard lo" {
			lo = 1
		}
		if _, err := MineShardSlotsFromSurvivors(context.Background(), s, norm, lo, 3, surv); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%s: err = %v, want ErrInvalidInput", name, err)
		}
	}
}

// TestAssembleConfidenceRederived: the wire carries integers only; assembly
// must recompute each confidence from F2/Pairs, ignoring whatever the slot
// claims.
func TestAssembleConfidenceRederived(t *testing.T) {
	s := shardFixture(605)
	opt := Options{Threshold: 0.6, MinPairs: 3, MaxPatternPeriod: 21}
	norm, err := NormalizeOptions(opt, s.Len())
	if err != nil {
		t.Fatal(err)
	}
	surv, err := ShardSurvivors(context.Background(), s, norm)
	if err != nil {
		t.Fatal(err)
	}
	slots, err := MineShardSlotsFromSurvivors(context.Background(), s, norm, 0, 3, surv)
	if err != nil {
		t.Fatal(err)
	}
	for i := range slots {
		slots[i].Confidence = -1 // poison: assembly must overwrite
	}
	res, err := AssembleFromSlots(context.Background(), s, norm, slots)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mine(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, res) {
		t.Error("assembled result differs after confidence poisoning")
	}
}
