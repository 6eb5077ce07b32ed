package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"reflect"

	"periodica"
	"periodica/internal/dist"
	"periodica/internal/gen"
	"periodica/internal/httpapi"
)

// distBench measures the sharded coordinator against the single-process
// mine on the same noisy periodic series. The workers are real httpapi
// servers reached over loopback HTTP, so the numbers include the full
// serialization + dispatch + merge cost; they share this process's cores,
// which makes the table an overhead ceiling rather than a cluster speedup.
func distBench(sc scale, seed int64) error {
	reps := 3
	if sc.length >= fullScale.length {
		reps = 5
	}

	inner, _, err := gen.Generate(gen.Config{
		Length: sc.length, Period: 32, Sigma: 10, Dist: gen.Uniform,
		Noise: gen.Replacement, NoiseRatio: 0.2, Seed: seed,
	})
	if err != nil {
		return err
	}
	s, err := periodica.NewSeriesFromString(inner.String())
	if err != nil {
		return err
	}
	// Cap the verification band: an uncapped MaxPeriod at bench scale puts
	// tens of thousands of candidate periods through the O(n)-per-slot
	// resolve stage and the run takes minutes per mine. 2048 keeps the
	// shard plan wide enough to split across every worker count measured.
	q, err := periodica.CompileQuery("conf >= 0.6 and period <= 2048 and pairs >= 3 and pattern period <= 64")
	if err != nil {
		return err
	}
	opt := q.Options()

	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	const maxWorkers = 4
	urls := make([]string, maxWorkers)
	for i := range urls {
		srv := httptest.NewServer(httpapi.New(httpapi.Config{Logger: quiet}))
		defer srv.Close()
		urls[i] = srv.URL
	}

	want, err := periodica.MineQueryContext(context.Background(), s, q)
	if err != nil {
		return err
	}
	var mineErr error
	base := bestOf(reps, func() {
		if _, err := periodica.MineQueryContext(context.Background(), s, q); err != nil {
			mineErr = err
		}
	})
	if mineErr != nil {
		return mineErr
	}

	fmt.Println("Distributed scaling — full mine via sharded coordinator, in-process HTTP workers (best of", reps, "runs)")
	fmt.Printf("%10s %9s %12s %12s %9s\n", "n", "workers", "candidates", "ms", "vs local")
	fmt.Printf("%10d %9s %12s %12.1f %9s\n", s.Len(), "local", "-", base*1e3, "1.00x")

	// Every worker count runs both candidate paths: "shipped" (the default —
	// the coordinator sweeps once and ships survivors with each shard) and
	// "self-detect" (NoCandidatePrecompute: every worker re-runs detection
	// over the whole series). Both are byte-identical to the local mine; the
	// point of the comparison is how much redundant whole-series work the
	// shipped path removes.
	shippedAt := map[int]float64{}
	for _, cand := range []struct {
		name string
		noPC bool
	}{{"shipped", false}, {"self-detect", true}} {
		for _, w := range []int{1, 2, 4} {
			coord, err := dist.New(dist.Config{
				Workers: urls[:w], NoCandidatePrecompute: cand.noPC, Logger: quiet,
			})
			if err != nil {
				return err
			}
			got, err := coord.Mine(context.Background(), s, opt)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(got, want) {
				return fmt.Errorf("dist: %d-worker %s result differs from the single-process mine", w, cand.name)
			}
			secs := bestOf(reps, func() {
				if _, err := coord.Mine(context.Background(), s, opt); err != nil {
					mineErr = err
				}
			})
			if mineErr != nil {
				return mineErr
			}
			if cand.noPC {
				fmt.Printf("%10d %9d %12s %12.1f %8.2fx   (shipped wins %.2fx)\n",
					s.Len(), w, cand.name, secs*1e3, base/secs, secs/shippedAt[w])
			} else {
				shippedAt[w] = secs
				fmt.Printf("%10d %9d %12s %12.1f %8.2fx\n", s.Len(), w, cand.name, secs*1e3, base/secs)
			}
		}
	}

	fmt.Println()
	return nil
}
