// Archive stores a long symbol stream in the embedded segment store and
// answers periodicity queries over arbitrary stretches of its history from
// the per-segment summaries alone — merge mining as a database operation.
// A year of daily readings is appended; the rhythm changes mid-year, and
// range queries see each regime where it lived while whole-history queries
// see the blend.
package main

import (
	"fmt"
	"log"
	"os"

	"periodica/internal/core"
	"periodica/internal/store"
)

func main() {
	dir, err := os.MkdirTemp("", "periodica-archive-*")
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = os.RemoveAll(dir) }() // best-effort temp cleanup

	db, err := store.Open(dir, store.Options{Sigma: 4, MaxPeriod: 14, SegmentSize: 60})
	if err != nil {
		log.Fatal(err)
	}

	// First half-year: weekly rhythm (period 7). Second half: shift work
	// changes the cycle to period 4.
	for day := 0; day < 180; day++ {
		if err := db.Append(day % 7 % 4); err != nil {
			log.Fatal(err)
		}
	}
	for day := 0; day < 180; day++ {
		if err := db.Append(day % 4); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stored %d days in %d sealed segments under %s\n\n", 360, 6, dir)

	// Reopen — answers come from the persisted summaries.
	db, err = store.Open(dir, store.Options{Sigma: 4, MaxPeriod: 14, SegmentSize: 60})
	if err != nil {
		log.Fatal(err)
	}

	report := func(label string, from, to int) {
		pers, err := db.PeriodicitiesRange(from, to, core.Options{Threshold: 0.95, MinPairs: 5})
		if err != nil {
			log.Fatal(err)
		}
		periods := map[int]bool{}
		for _, sp := range pers {
			periods[sp.Period] = true
		}
		fmt.Printf("%-28s segments [%d,%d): periods", label, from, to)
		for p := 1; p <= 14; p++ {
			if periods[p] {
				fmt.Printf(" %d", p)
			}
		}
		fmt.Println()
	}

	report("first half (weekly regime)", 0, 3)
	report("second half (4-day regime)", 3, 6)
	report("whole year", 0, 6)
}
