package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

func TestMineContextMatchesMine(t *testing.T) {
	s := randomSeries(131, 900, 4)
	want, err := mine(s, Options{Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// A live deadline polls throughout and must change nothing.
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	got, err := MineContext(ctx, s, Options{Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("MineContext under a live deadline differs from the uncancelled mine")
	}
}

func TestMineContextCancelled(t *testing.T) {
	s := randomSeries(132, 20000, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MineContext(ctx, s, Options{Threshold: 0.3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMineContextDeadline(t *testing.T) {
	s := randomSeries(133, 60000, 8)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := MineContext(ctx, s, Options{Threshold: 0.2})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation not prompt")
	}
}

// TestMineContextCancelMidMine proves the acceptance property: a mine whose
// context is cancelled mid-flight stops consuming CPU long before the period
// loop completes. The series is large enough that a full mine takes many
// seconds; the cancelled mine must return within a small bound.
func TestMineContextCancelMidMine(t *testing.T) {
	s := randomSeries(135, 400000, 8)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := MineContext(ctx, s, Options{Threshold: 0.05})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation not prompt: took %v", elapsed)
	}
}

// TestMineContextCancelMidPatterns cancels during the pattern-enumeration
// stage: detection covers a narrow period band so it finishes fast, while a
// tiny threshold with an uncapped pattern budget makes the depth-first
// enumeration enormous. The step-counter poll must abort it promptly.
func TestMineContextCancelMidPatterns(t *testing.T) {
	s := randomSeries(136, 20000, 4)
	opt := Options{
		Threshold: 0.004, MinPeriod: 120, MaxPeriod: 128,
		MaxPatternPeriod: 128, MaxPatterns: 1 << 30, MinPairs: 1,
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := MineContext(ctx, s, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("pattern-stage cancellation not prompt: took %v", elapsed)
	}
}

func TestDetectCandidatesContextMatches(t *testing.T) {
	s := randomSeries(137, 3000, 5)
	want, err := detectCandidates(s, 0.4, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	got, err := DetectCandidatesContext(ctx, s, 0.4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("DetectCandidatesContext under a live deadline differs from the uncancelled detection")
	}
}

func TestDetectCandidatesContextCancelled(t *testing.T) {
	s := randomSeries(138, 3000, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DetectCandidatesContext(ctx, s, 0.4, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestValidationErrorsMatchErrInvalidInput(t *testing.T) {
	s := randomSeries(139, 50, 3)
	if _, err := mine(s, Options{Threshold: 0}); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("Mine ψ=0: err = %v, want ErrInvalidInput", err)
	}
	if _, err := mine(s, Options{Threshold: 0.5, MaxPeriod: 500}); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("Mine bad range: err = %v, want ErrInvalidInput", err)
	}
	if _, err := detectCandidates(s, 0.5, 500); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("DetectCandidatesContext bad maxPeriod: err = %v, want ErrInvalidInput", err)
	}
	// Cancellation errors must NOT look like bad input.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MineContext(ctx, s, Options{Threshold: 0.5}); errors.Is(err, ErrInvalidInput) {
		t.Fatalf("cancelled mine: err = %v must not match ErrInvalidInput", err)
	}
}

func TestMineContextValidates(t *testing.T) {
	s := randomSeries(134, 50, 3)
	if _, err := MineContext(context.Background(), s, Options{Threshold: 0}); err == nil {
		t.Fatal("ψ=0: want error")
	}
}
