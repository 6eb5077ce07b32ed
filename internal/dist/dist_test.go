package dist

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"periodica"
	"periodica/internal/httpapi"
	"periodica/internal/obs"
)

func discard() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// worker starts a real mining worker and returns its base URL.
func worker(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(httpapi.New(httpapi.Config{Logger: discard()}))
	t.Cleanup(srv.Close)
	return srv.URL
}

func fixture(t *testing.T) *periodica.Series {
	t.Helper()
	s, err := periodica.NewSeriesFromString(strings.Repeat("abcabbabcb", 40))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var fixtureOpt = periodica.Options{Threshold: 0.6, MinPairs: 3, MaxPatternPeriod: 21}

// mustMine is the single-process reference result.
func mustMine(t *testing.T, s *periodica.Series, opt periodica.Options) *periodica.Result {
	t.Helper()
	want, err := periodica.MineQueryContext(context.Background(), s, periodica.QueryFromOptions(opt))
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Periodicities) == 0 {
		t.Fatal("fixture detected nothing; the test is vacuous")
	}
	return want
}

func TestNewRequiresWorkers(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted an empty worker set")
	}
}

func TestCoordinatorMatchesMine(t *testing.T) {
	workers := []string{worker(t), worker(t), worker(t)}
	s := fixture(t)
	for _, eng := range []periodica.Engine{periodica.EngineAuto, periodica.EngineBitset, periodica.EngineFFT} {
		opt := fixtureOpt
		opt.Engine = eng
		want := mustMine(t, s, opt)
		c, err := New(Config{Workers: workers, Logger: discard()})
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Mine(context.Background(), s, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("engine %v: distributed result differs from Mine", eng)
		}
	}
}

// TestCoordinatorRetries: a worker that fails its first shard requests with
// 500s forces the retry path; the mine must still match and the retry
// counter must move.
func TestCoordinatorRetries(t *testing.T) {
	real := httpapi.New(httpapi.Config{Logger: discard()})
	var failures atomic.Int32
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/v1/shard") && failures.Add(1) <= 2 {
			http.Error(w, `{"error":"injected worker crash"}`, http.StatusInternalServerError)
			return
		}
		real.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	s := fixture(t)
	want := mustMine(t, s, fixtureOpt)
	before := obs.Dist().Retries.Value()
	c, err := New(Config{
		Workers:      []string{flaky.URL, worker(t)},
		RetryBackoff: time.Millisecond, Logger: discard(),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Mine(context.Background(), s, fixtureOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("result differs from Mine after retries")
	}
	if obs.Dist().Retries.Value() == before {
		t.Error("retry counter did not move")
	}
}

// TestCoordinatorHedges: a worker that stalls until the client gives up
// forces the hedge path; the duplicate dispatch must win and the result
// must match.
func TestCoordinatorHedges(t *testing.T) {
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server can detect the hedge winner's
		// cancellation (an unread body blocks the disconnect watcher), then
		// stall until the coordinator gives up on this attempt.
		_, _ = io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
	}))
	defer stalled.Close()

	s := fixture(t)
	want := mustMine(t, s, fixtureOpt)
	before := obs.Dist().Hedges.Value()
	c, err := New(Config{
		Workers:    []string{stalled.URL, worker(t)},
		HedgeAfter: 20 * time.Millisecond, Logger: discard(),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Mine(context.Background(), s, fixtureOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("result differs from Mine after hedging")
	}
	if obs.Dist().Hedges.Value() == before {
		t.Error("hedge counter did not move")
	}
}

// TestCoordinatorLocalFallback: with every worker unreachable, each shard
// exhausts its budget and is computed in-process; the result still matches.
func TestCoordinatorLocalFallback(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := dead.URL
	dead.Close() // keep the URL, kill the listener

	s := fixture(t)
	want := mustMine(t, s, fixtureOpt)
	before := obs.Dist().LocalFallbacks.Value()
	c, err := New(Config{
		Workers: []string{url}, MaxAttempts: 2,
		RetryBackoff: time.Millisecond, Logger: discard(),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Mine(context.Background(), s, fixtureOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("result differs from Mine under local fallback")
	}
	if obs.Dist().LocalFallbacks.Value() == before {
		t.Error("local-fallback counter did not move")
	}
}

func TestCoordinatorFallbackDisabled(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := dead.URL
	dead.Close()

	c, err := New(Config{
		Workers: []string{url}, MaxAttempts: 2,
		RetryBackoff: time.Millisecond, DisableLocalFallback: true, Logger: discard(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Mine(context.Background(), fixture(t), fixtureOpt); err == nil {
		t.Fatal("Mine succeeded with no reachable worker and fallback disabled")
	}
}

// TestCoordinatorNonRetryableFails: a worker that rejects the request (400)
// must fail the mine immediately — retrying a rejection would loop, and the
// local fallback would mask a real bug in the coordinator's requests.
func TestCoordinatorNonRetryableFails(t *testing.T) {
	rejecting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"nope"}`, http.StatusBadRequest)
	}))
	defer rejecting.Close()

	before := obs.Dist().LocalFallbacks.Value()
	c, err := New(Config{Workers: []string{rejecting.URL}, Logger: discard()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Mine(context.Background(), fixture(t), fixtureOpt); err == nil {
		t.Fatal("Mine succeeded against a rejecting worker")
	}
	if got := obs.Dist().LocalFallbacks.Value(); got != before {
		t.Errorf("rejection triggered %d local fallbacks; want none", got-before)
	}
}

func TestCoordinatorCancellation(t *testing.T) {
	c, err := New(Config{Workers: []string{worker(t)}, Logger: discard()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Mine(ctx, fixture(t), fixtureOpt); err == nil {
		t.Fatal("Mine succeeded under a cancelled context")
	}
}

// TestPickWorkerHealth: a worker whose circuit opens is skipped while a
// healthy one exists, gets probed after the cooldown, and rejoins the
// rotation once the probe succeeds.
func TestPickWorkerHealth(t *testing.T) {
	c, err := New(Config{Workers: []string{"w0", "w1"}, Logger: discard()})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	c.breakers.now = func() time.Time { return now }
	for i := 0; i < c.cfg.BreakerThreshold; i++ {
		c.noteResult("w0", false)
	}
	if got := c.breakers.get("w0").state; got != breakerOpen {
		t.Fatalf("after %d failures w0 is %v, want open", c.cfg.BreakerThreshold, got)
	}
	for i := 0; i < 4; i++ {
		if w := c.pickWorker(nil); w != "w1" {
			t.Fatalf("pick %d during cooldown: chose open-circuit %q", i, w)
		}
	}
	// Cooldown elapses: the next rotation probes w0 exactly once, and the
	// probe's success closes the circuit.
	now = now.Add(c.cfg.BreakerCooldown)
	picked := map[string]bool{}
	for i := 0; i < 4; i++ {
		w := c.pickWorker(nil)
		picked[w] = true
		c.noteResult(w, true)
	}
	if !picked["w0"] {
		t.Error("recovered worker never probed again")
	}
	if got := c.breakers.get("w0").state; got != breakerClosed {
		t.Errorf("after successful probe w0 is %v, want closed", got)
	}
	// With every worker excluded or refusing, pickWorker still answers.
	if w := c.pickWorker(map[string]bool{"w0": true, "w1": true}); w == "" {
		t.Error("pickWorker returned no worker")
	}
}
