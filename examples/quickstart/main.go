// Quickstart walks the public API through the paper's running example
// T = abcabbabcb: the miner discovers — without being told any period — that
// symbol a recurs every 3 positions at offset 0, symbol b every 3 positions
// at offset 1, and that together they form the periodic pattern "ab*" holding
// in 2 of every 3 period occurrences.
package main

import (
	"context"
	"fmt"
	"log"

	"periodica"
)

func main() {
	s, err := periodica.NewSeriesFromString("abcabbabcb")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("series: %s (n=%d, alphabet %v)\n\n", s, s.Len(), s.Alphabet())

	q := periodica.QueryFromOptions(periodica.Options{Threshold: 2.0 / 3.0})
	res, err := periodica.MineQueryContext(context.Background(), s, q)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("detected periods:", res.Periods)

	fmt.Println("\nsymbol periodicities (Definition 1):")
	for _, sp := range res.Periodicities {
		fmt.Printf("  %q every %d positions at offset %d — confidence %.2f\n",
			sp.Symbol, sp.Period, sp.Position, sp.Confidence)
	}

	fmt.Println("\nsingle-symbol patterns (Definition 2):")
	for _, pt := range res.SingleSymbolPatterns {
		fmt.Printf("  %-6s support %.2f\n", pt.Text, pt.Support)
	}

	fmt.Println("\nmulti-symbol patterns (Definition 3):")
	for _, pt := range res.Patterns {
		fmt.Printf("  %-6s support %.2f\n", pt.Text, pt.Support)
	}
}
