// Monitoring watches a live event stream through a sliding window and
// reports when the stream's rhythm changes — the regime-shift view of the
// paper's data-stream motivation. A service emits a heartbeat every 12 ticks;
// mid-stream the schedule drifts to every 15 ticks. The monitor notices: the
// old periodicity ages out of the window and the new one takes its place.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"periodica"
)

func main() {
	const window, maxPeriod = 240, 40
	m, err := periodica.NewMonitor(maxPeriod, window, "ok", "warn", "beat")
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))

	emit := func(tick, period int) {
		ev := "ok"
		switch {
		case tick%period == 0:
			ev = "beat"
		case rng.Float64() < 0.1:
			ev = "warn"
		}
		if err := m.Append(ev); err != nil {
			log.Fatal(err)
		}
	}

	// A beat counts once it has recurred across at least four cycles.
	q, err := periodica.CompileQuery("conf >= 0.9 and pairs >= 4")
	if err != nil {
		log.Fatal(err)
	}
	report := func(label string) {
		pers, err := m.Periodicities(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s — window of %d events:\n", label, m.Len())
		seen := map[int]bool{}
		for _, sp := range pers {
			if sp.Symbol != "beat" || seen[sp.Period] {
				continue
			}
			seen[sp.Period] = true
			fmt.Printf("  beat every %2d ticks (%.0f%% of the window)\n", sp.Period, sp.Confidence*100)
		}
		if len(seen) == 0 {
			fmt.Println("  no stable beat")
		}
		fmt.Println()
	}

	// Regime 1: heartbeat every 12 ticks.
	for t := 0; t < 600; t++ {
		emit(t, 12)
	}
	report("regime 1 (schedule: 12)")

	// Drift: the scheduler now fires every 15 ticks.
	for t := 0; t < 600; t++ {
		emit(t, 15)
	}
	report("regime 2 (schedule: 15)")
}
