package store

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"periodica/internal/alphabet"
	"periodica/internal/core"
	"periodica/internal/exec"
	"periodica/internal/series"
)

// TestPeriodicityParityAtBoundaryThresholds sets ψ to every confidence the
// batch mine observes — the thresholds where a periodicity sits exactly on
// the Definition-1 boundary — and requires every source of periodicities to
// give the same list: the batch engines, a count table whole and merged from
// random splits, a window wider than the stream, the store over several
// segment sizes, and the distributed pipeline (sweep once, resolve shard
// slots, reassemble) — at the default MinPairs and at pairs >= 3. ψ is also set to every observed
// multi-symbol pattern support, where the batch engines must additionally
// agree on the patterns and keep the one sitting exactly on ψ.
func TestPeriodicityParityAtBoundaryThresholds(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	boundaryPatterns := 0
	for trial := 0; trial < 6; trial++ {
		sigma := rng.Intn(3) + 2
		maxP := rng.Intn(10) + 3
		n := rng.Intn(80) + 2*maxP + 2
		alpha := alphabet.Letters(sigma)
		data := make([]uint16, n)
		for i := range data {
			data[i] = uint16(rng.Intn(sigma))
			if i >= 4 && rng.Intn(3) > 0 {
				data[i] = data[i-4] // a noisy period-4 cycle, so confidences vary
			}
		}
		s := series.FromIndices(alpha, data)
		mine := func(opt core.Options, eng core.Engine) []core.SymbolPeriodicity {
			opt.MaxPeriod, opt.Engine, opt.MaxPatternPeriod = maxP, eng, -1
			res, err := core.MineWorkers(context.Background(), s, opt, 1)
			if err != nil {
				t.Fatal(err)
			}
			return res.Periodicities
		}

		counts, err := core.NewCounts(sigma, maxP)
		if err != nil {
			t.Fatal(err)
		}
		window, err := core.NewWindowMiner(sigma, maxP, n+1)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range data {
			for _, src := range []interface{ Append(int) error }{counts, window} {
				if err := src.Append(int(k)); err != nil {
					t.Fatal(err)
				}
			}
		}
		merged := mergedFromSplits(t, rng, sigma, maxP, data)
		var dbs []*DB
		for _, seg := range []int{maxP, maxP + 3, 2*maxP + 1} {
			db, err := Open(t.TempDir(), Options{Sigma: sigma, MaxPeriod: maxP, SegmentSize: seg})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range data {
				if err := db.Append(int(k)); err != nil {
					t.Fatal(err)
				}
			}
			dbs = append(dbs, db)
		}

		patterns := func(psi float64, eng core.Engine) []core.Pattern {
			res, err := core.MineWorkers(context.Background(), s,
				core.Options{Threshold: psi, MaxPeriod: maxP, Engine: eng, MaxPatternPeriod: maxP}, 1)
			if err != nil {
				t.Fatal(err)
			}
			return res.Patterns
		}
		supports := observedSupports(patterns(0.5, core.EngineNaive))
		for _, psi := range supports {
			want := patterns(psi, core.EngineNaive)
			onBoundary := false
			for _, pat := range want {
				onBoundary = onBoundary || pat.Support == psi
			}
			if !onBoundary {
				t.Fatalf("trial %d ψ=%v: the naive mine lost the pattern whose support is ψ", trial, psi)
			}
			for _, eng := range []core.Engine{core.EngineBitset, core.EngineFFT} {
				if got := patterns(psi, eng); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d ψ=%v: %v patterns %v, naive %v", trial, psi, eng, got, want)
				}
			}
		}
		boundaryPatterns += len(supports)

		for _, psi := range append(observedConfidences(mine(core.Options{Threshold: 1e-9}, core.EngineNaive)), supports...) {
			for _, minPairs := range []int{0, 3} {
				opt := core.Options{Threshold: psi, MinPairs: minPairs}
				want := sortPers(mine(opt, core.EngineNaive))
				sources := map[string]func() ([]core.SymbolPeriodicity, error){
					"bitset": func() ([]core.SymbolPeriodicity, error) { return mine(opt, core.EngineBitset), nil },
					"fft":    func() ([]core.SymbolPeriodicity, error) { return mine(opt, core.EngineFFT), nil },
					"counts": func() ([]core.SymbolPeriodicity, error) { return counts.Periodicities(opt) },
					"merged": func() ([]core.SymbolPeriodicity, error) { return merged.Periodicities(opt) },
					"window": func() ([]core.SymbolPeriodicity, error) { return window.Periodicities(opt) },
					"dist": func() ([]core.SymbolPeriodicity, error) {
						o := opt
						o.MaxPeriod, o.MaxPatternPeriod = maxP, -1
						return distPeriodicities(s, o)
					},
				}
				for _, db := range dbs {
					sources[fmt.Sprintf("store (segment size %d)", db.opt.SegmentSize)] = func() ([]core.SymbolPeriodicity, error) {
						return db.PeriodicitiesRange(0, db.Segments(), opt)
					}
				}
				for name, src := range sources {
					got, err := src()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(sortPers(got), want) {
						t.Fatalf("trial %d (σ=%d maxP=%d n=%d) ψ=%v MinPairs=%d: %s gives %v, naive mine %v",
							trial, sigma, maxP, n, psi, minPairs, name, sortPers(got), want)
					}
				}
			}
		}
	}
	if boundaryPatterns == 0 {
		t.Fatal("no multi-symbol pattern support observed; the pattern boundary is untested")
	}
}

// distPeriodicities mines s as the distributed tier does, without the
// network: it sweeps once over the whole series, resolves the slots of every
// shard of a plan from that shard's clipped survivors, and reassembles them.
func distPeriodicities(s *series.Series, opt core.Options) ([]core.SymbolPeriodicity, error) {
	ctx := context.Background()
	norm, err := core.NormalizeOptions(opt, s.Len())
	if err != nil {
		return nil, err
	}
	surv, err := core.ShardSurvivors(ctx, s, norm)
	if err != nil {
		return nil, err
	}
	var slots []core.SymbolPeriodicity
	for _, sh := range exec.PlanShards(s.Alphabet().Size(), norm.MinPeriod, norm.MaxPeriod, 4) {
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
		shardOpt := norm
		shardOpt.MinPeriod, shardOpt.MaxPeriod = sh.MinPeriod, sh.MaxPeriod
		got, err := core.MineShardSlotsFromSurvivors(ctx, s, shardOpt, sh.SymbolLo, sh.SymbolHi, band)
		if err != nil {
			return nil, err
		}
		slots = append(slots, got...)
	}
	res, err := core.AssembleFromSlots(ctx, s, norm, slots)
	if err != nil {
		return nil, err
	}
	return res.Periodicities, nil
}

// observedSupports returns the distinct supports of pats, ascending.
func observedSupports(pats []core.Pattern) []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, pat := range pats {
		if !seen[pat.Support] {
			seen[pat.Support] = true
			out = append(out, pat.Support)
		}
	}
	sort.Float64s(out)
	return out
}

// observedConfidences returns the distinct confidences of pers, ascending.
func observedConfidences(pers []core.SymbolPeriodicity) []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, sp := range pers {
		if !seen[sp.Confidence] {
			seen[sp.Confidence] = true
			out = append(out, sp.Confidence)
		}
	}
	sort.Float64s(out)
	return out
}

// mergedFromSplits cuts data at random points, ingests each piece into its
// own count table and merges them left to right.
func mergedFromSplits(t *testing.T, rng *rand.Rand, sigma, maxP int, data []uint16) *core.Counts {
	t.Helper()
	var acc *core.Counts
	for start := 0; start < len(data); {
		end := min(len(data), start+1+rng.Intn(2*maxP))
		part, err := core.NewCounts(sigma, maxP)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range data[start:end] {
			if err := part.Append(int(k)); err != nil {
				t.Fatal(err)
			}
		}
		if acc == nil {
			acc = part
		} else if err := acc.Merge(part); err != nil {
			t.Fatal(err)
		}
		start = end
	}
	return acc
}
