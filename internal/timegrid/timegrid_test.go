package timegrid

import (
	"testing"
	"time"

	"periodica/internal/core"
)

var t0 = time.Date(2004, 3, 14, 0, 0, 0, 0, time.UTC)

func at(minutes int) time.Time { return t0.Add(time.Duration(minutes) * time.Minute) }

func TestGridBasic(t *testing.T) {
	events := []Event{
		{at(0), "x"}, {at(2), "y"}, {at(5), "x"},
	}
	s, err := Grid(events, Config{Bin: time.Minute, Idle: "-"})
	if err != nil {
		t.Fatal(err)
	}
	// Bins 0..5: x, idle, y, idle, idle, x.
	want := []string{"x", "-", "y", "-", "-", "x"}
	if s.Len() != len(want) {
		t.Fatalf("len = %d, want %d", s.Len(), len(want))
	}
	for i, sym := range want {
		if got := s.Alphabet().Symbol(s.At(i)); got != sym {
			t.Fatalf("bin %d = %q, want %q", i, got, sym)
		}
	}
}

func TestGridConflictPolicies(t *testing.T) {
	events := []Event{
		{at(0), "a"}, {at(0), "b"}, {at(0), "b"},
	}
	cases := map[Conflict]string{KeepFirst: "a", KeepLast: "b", Majority: "b"}
	for policy, want := range cases {
		s, err := Grid(events, Config{Bin: time.Minute, Idle: "-", Conflict: policy})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Alphabet().Symbol(s.At(0)); got != want {
			t.Fatalf("policy %d: bin 0 = %q, want %q", policy, got, want)
		}
	}
}

func TestGridUnsortedInput(t *testing.T) {
	events := []Event{
		{at(5), "b"}, {at(0), "a"},
	}
	s, err := Grid(events, Config{Bin: time.Minute, Idle: "."})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 6 || s.Alphabet().Symbol(s.At(0)) != "a" || s.Alphabet().Symbol(s.At(5)) != "b" {
		t.Fatalf("unsorted events gridded wrong: %v", s)
	}
}

func TestGridValidates(t *testing.T) {
	ok := []Event{{at(0), "a"}}
	if _, err := Grid(nil, Config{Bin: time.Minute, Idle: "-"}); err == nil {
		t.Fatal("no events: want error")
	}
	if _, err := Grid(ok, Config{Bin: 0, Idle: "-"}); err == nil {
		t.Fatal("bin 0: want error")
	}
	if _, err := Grid(ok, Config{Bin: time.Minute}); err == nil {
		t.Fatal("missing idle: want error")
	}
	if _, err := Grid([]Event{{at(0), "-"}}, Config{Bin: time.Minute, Idle: "-"}); err == nil {
		t.Fatal("idle collision: want error")
	}
	if _, err := Grid([]Event{{at(0), ""}}, Config{Bin: time.Minute, Idle: "-"}); err == nil {
		t.Fatal("empty symbol: want error")
	}
	far := []Event{{at(0), "a"}, {at(1000000), "a"}}
	if _, err := Grid(far, Config{Bin: time.Minute, Idle: "-", MaxBins: 100}); err == nil {
		t.Fatal("bin guard: want error")
	}
}

func TestGridFeedsMiner(t *testing.T) {
	// A job every 15 minutes for a day, logged with jitter-free timestamps;
	// binned at 1 minute, the miner finds period 15.
	var events []Event
	for m := 0; m < 24*60; m += 15 {
		events = append(events, Event{at(m), "job"})
	}
	events = append(events, Event{at(24*60 - 1), "noise"})
	s, err := Grid(events, Config{Bin: time.Minute, Idle: "idle"})
	if err != nil {
		t.Fatal(err)
	}
	if conf := core.PeriodConfidence(s, 15); conf < 0.95 {
		t.Fatalf("period 15 confidence %v from gridded events", conf)
	}
}
