// Ondisk mines a series that lives on disk without loading it — the paper's
// §3.1 remark that "an external FFT algorithm can be used for large sizes of
// databases mined while on disk". A store trace is written to a file; the
// candidate-period detection then reads it once, in one streaming pass
// through the block kernel with O(σ·B) state (B = NextPow2(maxPeriod)) and no
// scratch files. The candidates are verified against the in-memory path.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"

	"periodica"
	"periodica/internal/walmart"
)

func main() {
	// Six months of hourly transactions, discretized and written to disk.
	s := walmart.Series(walmart.Config{Months: 6, Seed: 21})
	pub, err := periodica.NewSeriesFromString(s.String())
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "periodica-ondisk-*")
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = os.RemoveAll(dir) }() // best-effort temp cleanup
	path := filepath.Join(dir, "transactions.pser")
	if err := pub.WriteFile(path); err != nil {
		log.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d hourly symbols (%d bytes) to %s\n", pub.Len(), info.Size(), path)

	// Detect candidate periods straight from the file.
	q, err := periodica.CompileQuery("conf >= 0.9 and period <= 400")
	if err != nil {
		log.Fatal(err)
	}
	onDisk, err := periodica.CandidatePeriodsFile(path, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncandidate periods from disk (ψ=0.9, p ≤ 400): %d found\n", len(onDisk))
	show := onDisk
	if len(show) > 12 {
		show = show[:12]
	}
	fmt.Println("  leading candidates:", show)

	// Cross-check against the in-memory detection phase.
	inMem, err := periodica.CandidatePeriodsQueryContext(context.Background(), pub, q)
	if err != nil {
		log.Fatal(err)
	}
	if !slices.Equal(onDisk, inMem) {
		log.Fatalf("on-disk and in-memory candidates differ:\n%v\n%v", onDisk, inMem)
	}
	fmt.Println("\n✓ on-disk detection matches the in-memory result period for period")

	// Resolve the daily period in full (in memory, on the interesting range).
	res, err := periodica.MineQueryContext(context.Background(), pub, periodica.QueryFromOptions(periodica.Options{
		Threshold: 0.9, MinPeriod: 24, MaxPeriod: 24, MaxPatternPeriod: -1,
	}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nperiod 24 resolved: %d hourly periodicities at ψ=0.9\n", len(res.Periodicities))
}
