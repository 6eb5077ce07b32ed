package periodica_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"periodica"
)

// The paper's running example: the miner discovers period 3 and the pattern
// "ab*" without being told any period.
func ExampleMineQueryContext() {
	s, err := periodica.NewSeriesFromString("abcabbabcb")
	if err != nil {
		log.Fatal(err)
	}
	q := periodica.QueryFromOptions(periodica.Options{Threshold: 2.0 / 3.0})
	res, err := periodica.MineQueryContext(context.Background(), s, q)
	if err != nil {
		log.Fatal(err)
	}
	for _, pt := range res.Patterns {
		fmt.Printf("%s support %.2f\n", pt.Text, pt.Support)
	}
	// Output:
	// ab* support 0.67
}

// Numeric readings are discretized into levels before mining.
func ExampleDiscretizeEqualWidth() {
	readings := []float64{10, 55, 90, 12, 57, 88, 9, 54, 91, 11, 56, 89}
	s, err := periodica.DiscretizeEqualWidth(readings, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(s)
	q, err := periodica.CompileQuery("conf >= 1")
	if err != nil {
		log.Fatal(err)
	}
	res, err := periodica.MineQueryContext(context.Background(), s, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("periods:", res.Periods)
	// Output:
	// abcabcabcabc
	// periods: [3 6]
}

// A stream is ingested one element at a time — the paper's single pass — and
// mined when it ends.
func Example_stream() {
	var events []string
	for t := 0; t < 40; t++ {
		ev := "ok"
		if t%5 == 0 {
			ev = "beat"
		}
		events = append(events, ev)
	}
	s, err := periodica.NewSeries(events)
	if err != nil {
		log.Fatal(err)
	}
	q, err := periodica.CompileQuery("conf >= 1 and period <= 10")
	if err != nil {
		log.Fatal(err)
	}
	res, err := periodica.MineQueryContext(context.Background(), s, q)
	if err != nil {
		log.Fatal(err)
	}
	for _, sp := range res.Periodicities {
		if sp.Symbol == "beat" && sp.Period == 5 {
			fmt.Printf("%s every %d ticks at offset %d\n", sp.Symbol, sp.Period, sp.Position)
		}
	}
	// Output:
	// beat every 5 ticks at offset 0
}

// A sliding-window monitor tracks the rhythm of the most recent events;
// stale regimes age out.
func ExampleMonitor() {
	m, err := periodica.NewMonitor(10, 60, "tick", "tock")
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		sym := "tick"
		if i%4 == 0 {
			sym = "tock"
		}
		if err := m.Append(sym); err != nil {
			log.Fatal(err)
		}
	}
	q, err := periodica.CompileQuery("conf >= 1")
	if err != nil {
		log.Fatal(err)
	}
	pers, err := m.Periodicities(q)
	if err != nil {
		log.Fatal(err)
	}
	for _, sp := range pers {
		if sp.Symbol == "tock" && sp.Period == 4 {
			fmt.Printf("tock every %d in the last %d events\n", sp.Period, m.Len())
			break
		}
	}
	// Output:
	// tock every 4 in the last 60 events
}

// Irregular timestamped events are binned onto the regular grid the miner
// needs.
func ExampleGridEvents() {
	start := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)
	var events []periodica.Event
	for m := 0; m < 120; m += 20 {
		events = append(events, periodica.Event{
			Time: start.Add(time.Duration(m) * time.Minute), Symbol: "backup",
		})
	}
	s, err := periodica.GridEvents(events, 10*time.Minute, "quiet")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grid of %d bins, backup confidence at period 2: %.0f%%\n",
		s.Len(), periodica.PeriodConfidence(s, 2)*100)
	// Output:
	// grid of 11 bins, backup confidence at period 2: 100%
}

// Counters over adjacent stretches of one stream, built apart, merge into
// the counter of the whole stream.
func ExampleCounter_Merge() {
	head, err := periodica.NewCounter(8, "a", "b")
	if err != nil {
		log.Fatal(err)
	}
	tail, err := periodica.NewCounter(8, "a", "b")
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		c, sym := head, "a"
		if i >= 9 {
			c = tail
		}
		if i%2 == 1 {
			sym = "b"
		}
		if err := c.Append(sym); err != nil {
			log.Fatal(err)
		}
	}
	if err := head.Merge(tail); err != nil {
		log.Fatal(err)
	}
	q, err := periodica.CompileQuery("conf >= 1")
	if err != nil {
		log.Fatal(err)
	}
	pers, err := head.Periodicities(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d symbols; %s has period %d\n", head.Len(), pers[0].Symbol, pers[0].Period)
	// Output:
	// 24 symbols; a has period 2
}
