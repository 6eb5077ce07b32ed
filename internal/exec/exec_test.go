package exec

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"periodica/internal/obs"
)

func TestRunCoversEveryItemSerial(t *testing.T) {
	s := New(Config{Workers: 1})
	var got []int
	err := s.Run(10, 0, func(w int) func(i int) error {
		return func(i int) error {
			got = append(got, i)
			return nil
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("serial Run out of order at %d: got %d", i, v)
		}
	}
	if len(got) != 10 {
		t.Fatalf("serial Run covered %d of 10 items", len(got))
	}
}

func TestRunCoversEveryItemParallel(t *testing.T) {
	s := New(Config{Workers: 4})
	var seen [100]atomic.Int32
	err := s.Run(100, 0, func(w int) func(i int) error {
		return func(i int) error {
			seen[i].Add(1)
			return nil
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Fatalf("item %d processed %d times", i, n)
		}
	}
}

func TestRunLatchesFirstErrorAndDrains(t *testing.T) {
	s := New(Config{Workers: 4})
	boom := errors.New("boom")
	var after atomic.Int32
	err := s.Run(50, 0, func(w int) func(i int) error {
		return func(i int) error {
			if i == 3 {
				return boom
			}
			if s.Err() != nil {
				after.Add(1) // should not happen: Poll gates each item
			}
			return nil
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want boom", err)
	}
	if s.Err() != err {
		t.Fatalf("latched %v, want %v", s.Err(), err)
	}
	if after.Load() != 0 {
		t.Fatalf("%d items ran after the error latched", after.Load())
	}
}

func TestPollLatchesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := New(Config{Cancel: ctx.Err})
	if err := s.Poll(); err != nil {
		t.Fatalf("Poll before cancel: %v", err)
	}
	cancel()
	if err := s.Poll(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Poll after cancel = %v", err)
	}
	// The error stays latched even if the source were to recover.
	if err := s.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v", err)
	}
}

func TestTickPollsOnBoundary(t *testing.T) {
	polls := 0
	s := New(Config{Cancel: func() error {
		polls++
		return nil
	}})
	const steps, tick = 900, 100
	for i := 0; i < steps/tick; i++ {
		if err := s.Tick(tick); err != nil {
			t.Fatalf("Tick: %v", err)
		}
	}
	// Every DefaultPollEvery boundary the count crosses polls once.
	if want := steps / DefaultPollEvery; polls != want {
		t.Fatalf("cancel polled %d times over %d steps, want %d", polls, steps, want)
	}
}

func TestRunCancelledMidwayDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := New(Config{Workers: 1, Cancel: ctx.Err})
	done := 0
	err := s.Run(10, 1, func(w int) func(i int) error {
		return func(i int) error {
			done++
			if i == 4 {
				cancel()
			}
			return nil
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want Canceled", err)
	}
	if done != 5 {
		t.Fatalf("%d items ran, want 5 (cancel polled before each item)", done)
	}
}

func TestRunQueueDepthReturnsToZero(t *testing.T) {
	met := obs.Exec()
	s := New(Config{Workers: 4, Metrics: met})
	err := s.Run(64, 0, func(w int) func(i int) error {
		return func(i int) error { return nil }
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if d := met.QueueDepth().Value(); d != 0 {
		t.Fatalf("queue depth after Run = %d, want 0", d)
	}
}

func TestGate(t *testing.T) {
	g := NewGate(2)
	if g.Capacity() != 2 {
		t.Fatalf("Capacity = %d", g.Capacity())
	}
	if !g.TryAcquire() || !g.TryAcquire() {
		t.Fatal("could not fill the gate")
	}
	if g.TryAcquire() {
		t.Fatal("acquired beyond capacity")
	}
	if g.InUse() != 2 {
		t.Fatalf("InUse = %d", g.InUse())
	}
	g.Release()
	if !g.TryAcquire() {
		t.Fatal("slot not reusable after Release")
	}
	if NewGate(0).Capacity() != 1 {
		t.Fatal("zero-slot gate should clamp to one")
	}
}
