// Powerconsumption mines a year of daily power-consumption readings — the
// paper's CIMEG scenario. Raw Watts/day values are discretized into the
// paper's five expert levels ("very low" below 6000 W, then 2000-W bands),
// and the miner discovers the weekly rhythm (period 7 and its multiples)
// plus the customer's very-low-consumption day, with no period supplied.
package main

import (
	"context"
	"fmt"
	"log"

	"periodica"
	"periodica/internal/cimeg"
)

func main() {
	// One year of synthetic daily consumption for one customer; stands in
	// for the CIMEG project database (see DESIGN.md on the substitution).
	watts := cimeg.Generate(cimeg.Config{Days: 365, Seed: 7, Seasonal: true})
	fmt.Printf("raw data: %d days, first week %.0f\n\n", len(watts), watts[:7])

	// The paper's discretization: very low < 6000 W/day, then 2000-W bands.
	s, err := periodica.DiscretizeBreakpoints(watts, []float64{6000, 8000, 10000, 12000})
	if err != nil {
		log.Fatal(err)
	}
	levels := []string{"very low", "low", "medium", "high", "very high"}

	// Stage 1 — how confidently is each plausible rhythm detected? The
	// weekly period and its multiples dominate.
	fmt.Println("confidence per candidate period:")
	for _, p := range []int{5, 6, 7, 14, 21, 30} {
		fmt.Printf("  p=%-3d %.3f\n", p, periodica.PeriodConfidence(s, p))
	}

	// Stage 2 — full mining of the weekly period. Daily noise keeps
	// individual day-confidences near 50%, so patterns are mined at a
	// moderate threshold, as the paper does for its real data (ψ = 35%).
	res, err := periodica.MineQueryContext(context.Background(), s, periodica.QueryFromOptions(periodica.Options{
		Threshold: 0.35, MinPeriod: 7, MaxPeriod: 7, MaxPatternPeriod: 7,
	}))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nweekly symbol periodicities:")
	for _, sp := range res.Periodicities {
		level := levels[int(sp.Symbol[0]-'a')]
		fmt.Printf("  day %d of the week is %-9s — %.0f%% of weeks\n",
			sp.Position, level, sp.Confidence*100)
	}

	fmt.Println("\nweekly patterns (≥ 2 fixed days):")
	for i, pt := range res.Patterns {
		if i == 10 {
			fmt.Printf("  … %d more\n", len(res.Patterns)-i)
			break
		}
		fmt.Printf("  %s  support %.0f%%\n", pt.Text, pt.Support*100)
	}
}
