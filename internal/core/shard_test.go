package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
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

// mineViaShards cuts the normalized option range into a plan, computes every
// shard's slots, and reassembles — the distributed pipeline without the
// network.
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
	var slots []SymbolPeriodicity
	for _, sh := range plan {
		shardOpt := norm
		shardOpt.MinPeriod, shardOpt.MaxPeriod = sh.MinPeriod, sh.MaxPeriod
		part, err := MineShardSlots(context.Background(), s, shardOpt, sh.SymbolLo, sh.SymbolHi)
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

func TestMineShardSlotsValidates(t *testing.T) {
	s := shardFixture(100)
	opt := Options{Threshold: 0.6}
	for _, r := range [][2]int{{-1, 2}, {0, 4}, {2, 2}, {2, 1}} {
		if _, err := MineShardSlots(context.Background(), s, opt, r[0], r[1]); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("symbol range %v: err = %v, want ErrInvalidInput", r, err)
		}
	}
}

func TestMineShardSlotsCancellation(t *testing.T) {
	s := shardFixture(5000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MineShardSlots(ctx, s, Options{Threshold: 0.6}, 0, 3); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestAssembleFromSlotsRejectsBadSlots(t *testing.T) {
	s := shardFixture(100)
	opt := Options{Threshold: 0.6}
	good := SymbolPeriodicity{Symbol: 0, Period: 7, Position: 2, F2: 9, Pairs: 13}
	cases := map[string][]SymbolPeriodicity{
		"symbol out of range":   {{Symbol: 9, Period: 7, Position: 0, F2: 1, Pairs: 2}},
		"period out of range":   {{Symbol: 0, Period: 99, Position: 0, F2: 1, Pairs: 2}},
		"position out of range": {{Symbol: 0, Period: 7, Position: 7, F2: 1, Pairs: 2}},
		"zero F2":               {{Symbol: 0, Period: 7, Position: 0, F2: 0, Pairs: 2}},
		"F2 above pairs":        {{Symbol: 0, Period: 7, Position: 0, F2: 3, Pairs: 2}},
		"duplicate":             {good, good},
	}
	for name, slots := range cases {
		if _, err := AssembleFromSlots(context.Background(), s, opt, slots); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%s: err = %v, want ErrInvalidInput", name, err)
		}
	}
}

// TestShardSurvivorsShippedPathMatches: for every shard of a plan, mining
// from the coordinator's shipped survivor slice must produce the exact slots
// the self-detecting path produces, so candidate shipping can never change a
// mine's bytes.
func TestShardSurvivorsShippedPathMatches(t *testing.T) {
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
	if len(surv) != norm.MaxPeriod-norm.MinPeriod+1 {
		t.Fatalf("survivor set spans %d periods, want %d", len(surv), norm.MaxPeriod-norm.MinPeriod+1)
	}
	nonEmpty := false
	for _, list := range surv {
		nonEmpty = nonEmpty || len(list) > 0
	}
	if !nonEmpty {
		t.Fatal("no survivors anywhere; the test is vacuous")
	}
	plan := exec.PlanShards(s.Alphabet().Size(), norm.MinPeriod, norm.MaxPeriod, 9)
	for _, sh := range plan {
		shardOpt := norm
		shardOpt.MinPeriod, shardOpt.MaxPeriod = sh.MinPeriod, sh.MaxPeriod
		// Slice the coordinator's band and clip each list to the shard's
		// symbol range, exactly as the dist coordinator ships it.
		band := make([][]int32, 0, sh.MaxPeriod-sh.MinPeriod+1)
		for p := sh.MinPeriod; p <= sh.MaxPeriod; p++ {
			var clipped []int32
			for _, k := range surv[p-norm.MinPeriod] {
				if int(k) >= sh.SymbolLo && int(k) < sh.SymbolHi {
					clipped = append(clipped, k)
				}
			}
			band = append(band, clipped)
		}
		want, err := MineShardSlots(context.Background(), s, shardOpt, sh.SymbolLo, sh.SymbolHi)
		if err != nil {
			t.Fatalf("shard %d self-detect: %v", sh.ID, err)
		}
		got, err := MineShardSlotsFromSurvivors(context.Background(), s, shardOpt, sh.SymbolLo, sh.SymbolHi, band)
		if err != nil {
			t.Fatalf("shard %d shipped: %v", sh.ID, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("shard %d: shipped-survivor slots differ from self-detected slots", sh.ID)
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
	slots, err := MineShardSlots(context.Background(), s, norm, 0, 3)
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
