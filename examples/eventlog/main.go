// Eventlog mines a network monitoring event stream — the second data model
// of the paper's §2.1, where each element is an event type rather than a
// discretized measurement. Events arrive one at a time and are ingested in a
// single pass (the paper's data-stream motivation); a heartbeat fires every
// 60 ticks and a backup job every 97 ticks, buried under random alerts, and
// the miner recovers both periods from the stream without being told either.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"periodica"
)

const (
	ticks           = 50000
	heartbeatPeriod = 60
	backupPeriod    = 97
)

func main() {
	events := []string{"ok", "warn", "err", "auth", "scan", "heartbeat", "backup"}
	st, err := periodica.NewStream(events...)
	if err != nil {
		log.Fatal(err)
	}

	// One pass over the live stream: each tick carries exactly one event.
	rng := rand.New(rand.NewSource(13))
	background := []string{"ok", "ok", "ok", "warn", "err", "auth", "scan"}
	for t := 0; t < ticks; t++ {
		switch {
		case t%heartbeatPeriod == 0 && rng.Float64() < 0.95: // drops 5%
			err = st.Append("heartbeat")
		case t%backupPeriod == 3:
			err = st.Append("backup")
		default:
			err = st.Append(background[rng.Intn(len(background))])
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("ingested %d events in one pass\n\n", st.Len())

	res, err := st.FinishQueryContext(context.Background(), periodica.QueryFromOptions(periodica.Options{
		Threshold: 0.85, MaxPeriod: 200, MaxPatternPeriod: -1,
	}))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("detected periods (ψ=0.85): %v\n\n", res.Periods)
	fmt.Println("periodic events:")
	for _, sp := range res.Periodicities {
		fmt.Printf("  %-10s every %3d ticks (offset %3d) — %.0f%% confidence\n",
			sp.Symbol, sp.Period, sp.Position, sp.Confidence*100)
	}

	check(res, "heartbeat", heartbeatPeriod)
	check(res, "backup", backupPeriod)
}

func check(res *periodica.Result, event string, period int) {
	for _, sp := range res.Periodicities {
		if sp.Symbol == event && sp.Period == period {
			fmt.Printf("\n✓ recovered %s period %d from the stream\n", event, period)
			return
		}
	}
	fmt.Printf("\n✗ %s period %d NOT detected\n", event, period)
}
