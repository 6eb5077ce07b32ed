// Fleet mines a database of series — one power-consumption series per
// customer — and reports the weekly patterns shared across the customer
// base, the database-of-sequences setting the paper's introduction
// motivates. Each customer's data is noisy on its own; aggregation across
// the fleet makes the shared structure explicit.
package main

import (
	"context"
	"fmt"
	"log"

	"periodica"
	"periodica/internal/cimeg"
)

func main() {
	// Twelve customers, one year of daily consumption each; all share the
	// weekly rhythm (very low on the away day, high weekends) but with
	// independent noise.
	const customers = 12
	raw := cimeg.Customers(customers, cimeg.Config{Days: 365, Seed: 31, Seasonal: true})
	db := make([]*periodica.Series, customers)
	for i, s := range raw {
		pub, err := periodica.NewSeriesFromString(s.String())
		if err != nil {
			log.Fatal(err)
		}
		db[i] = pub
	}
	fmt.Printf("database: %d customers × %d days\n\n", customers, db[0].Len())

	// Patterns must reach 35% weekly support within a customer and recur in
	// at least 2/3 of the customer base.
	pats, err := periodica.MineDatabase(db, periodica.Options{
		Threshold: 0.35, MinPeriod: 7, MaxPeriod: 7, MaxPatternPeriod: 7,
	}, 2.0/3.0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("weekly patterns shared by ≥ %d of %d customers:\n", customers*2/3, customers)
	for i, dp := range pats {
		if i == 12 {
			fmt.Printf("  … %d more\n", len(pats)-i)
			break
		}
		fmt.Printf("  %-8s in %2d customers, mean support %.0f%%\n",
			dp.Text, dp.Sequences, dp.MeanSupport*100)
	}

	// Per-customer view of the strongest shared pattern, for contrast.
	if len(pats) > 0 {
		fmt.Printf("\nstrongest shared pattern %q per customer:\n", pats[0].Text)
		for i, s := range db {
			res, err := periodica.MineQueryContext(context.Background(), s, periodica.QueryFromOptions(periodica.Options{
				Threshold: 0.2, MinPeriod: 7, MaxPeriod: 7, MaxPatternPeriod: 7,
			}))
			if err != nil {
				log.Fatal(err)
			}
			support := 0.0
			for _, pt := range res.Patterns {
				if pt.Text == pats[0].Text {
					support = pt.Support
				}
			}
			fmt.Printf("  customer %2d: %.0f%%\n", i, support*100)
		}
	}
}
