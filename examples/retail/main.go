// Retail mines hourly transaction counts from a store — the paper's Wal-Mart
// scenario. Counts are discretized into the paper's five levels (very low =
// closed, low < 200 tx/h, then 200-wide bands) and the miner recovers the
// daily rhythm (period 24), the weekly rhythm (period 168), and
// interpretable hourly patterns such as "fewer than 200 transactions between
// 7 and 8 am on most days" — all without being told any period.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"periodica"
	"periodica/internal/walmart"
)

func main() {
	// 15 months of synthetic hourly transactions; stands in for the paper's
	// Wal-Mart Teradata trace (see DESIGN.md on the substitution).
	counts := walmart.Generate(walmart.Config{Months: 15, Seed: 11, DST: true})
	fmt.Printf("raw data: %d hourly readings (%d days)\n\n", len(counts), len(counts)/24)

	// The paper's discretization: very low = 0 tx/h, low < 200, 200-bands.
	s, err := periodica.DiscretizeBreakpoints(counts, []float64{1e-9, 200, 400, 600})
	if err != nil {
		log.Fatal(err)
	}

	// Which periods dominate? Rank candidates by how confidently they are
	// detected.
	type cand struct {
		p    int
		conf float64
	}
	var cands []cand
	for _, p := range []int{12, 24, 48, 168, 24 * 30} {
		cands = append(cands, cand{p, periodica.PeriodConfidence(s, p)})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].conf > cands[j].conf })
	fmt.Println("confidence per candidate period:")
	for _, c := range cands {
		fmt.Printf("  p=%-5d %.3f\n", c.p, c.conf)
	}

	// Mine the daily period in full.
	res, err := periodica.MineQueryContext(context.Background(), s, periodica.QueryFromOptions(periodica.Options{
		Threshold: 0.8, MinPeriod: 24, MaxPeriod: 24, MaxPatternPeriod: 24,
	}))
	if err != nil {
		log.Fatal(err)
	}

	levels := []string{"closed/idle", "under 200 tx", "200-400 tx", "400-600 tx", "over 600 tx"}
	fmt.Println("\ndaily hour-by-hour periodicities (ψ=0.8):")
	for _, sp := range res.Periodicities {
		fmt.Printf("  %02d:00-%02d:59  %-14s %.0f%% of days\n",
			sp.Position, sp.Position, levels[int(sp.Symbol[0]-'a')], sp.Confidence*100)
	}

	fmt.Println("\ntop daily patterns:")
	for i, pt := range res.Patterns {
		if i == 5 {
			break
		}
		fmt.Printf("  %s  support %.0f%%\n", pt.Text, pt.Support*100)
	}
}
