package periodica_test

// Distributed-path parity: a mine sharded across real HTTP workers must be
// byte-identical to the single-process mine — for every engine, at any
// shard plan, and through the coordinator's fault paths (a killed worker
// that forces retries, a stalled worker that forces a hedge). CI runs
// these under `go test -run ParityDist -race` with two workers
// (PERIODICA_DIST_WORKERS=2).

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"periodica"
	"periodica/internal/dist"
	"periodica/internal/httpapi"
	"periodica/internal/obs"
)

// distWorkerCount is the worker-pool size: PERIODICA_DIST_WORKERS when set
// (the CI integration job pins 2), otherwise 3 so the default run exercises
// a plan wider than the two-worker minimum.
func distWorkerCount(t *testing.T) int {
	t.Helper()
	if v := os.Getenv("PERIODICA_DIST_WORKERS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("PERIODICA_DIST_WORKERS=%q is not a positive integer", v)
		}
		return n
	}
	return 3
}

func quietLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// startWorker runs a real mining worker — the same httpapi handler opserve
// serves — and returns its base URL.
func startWorker(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(httpapi.New(httpapi.Config{Logger: quietLogger()}))
	t.Cleanup(srv.Close)
	return srv.URL
}

func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		urls[i] = startWorker(t)
	}
	return urls
}

func distCoordinator(t *testing.T, cfg dist.Config) *dist.Coordinator {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	c, err := dist.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestParityDistributed(t *testing.T) {
	workers := startWorkers(t, distWorkerCount(t))
	for _, n := range []int{605, 5000} {
		for name, eng := range parityEngines(t) {
			if eng == periodica.EngineNaive && n > 1000 {
				continue // quadratic reference stays on the small input
			}
			t.Run("n="+strconv.Itoa(n)+"/"+name, func(t *testing.T) {
				s, err := periodica.NewSeries(paritySymbols(n))
				if err != nil {
					t.Fatal(err)
				}
				opt := periodica.Options{Threshold: 0.6, Engine: eng, MinPairs: 3, MaxPatternPeriod: 21}
				want, err := mine(s, opt)
				if err != nil {
					t.Fatal(err)
				}
				if len(want.Periodicities) == 0 {
					t.Fatal("parity fixture detected nothing; the test is vacuous")
				}
				// Different ShardsPerWorker values produce different shard
				// plans over the same period range; every plan must merge
				// to the same bytes.
				for _, spw := range []int{1, 3} {
					c := distCoordinator(t, dist.Config{Workers: workers, ShardsPerWorker: spw})
					got, err := c.Mine(context.Background(), s, opt)
					if err != nil {
						t.Fatalf("shardsPerWorker=%d: %v", spw, err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Errorf("shardsPerWorker=%d: distributed result differs from Mine", spw)
					}
				}
			})
		}
	}
}

// TestParityDistributedRetry kills the first worker for its first few shard
// requests: the coordinator must retry onto a healthy worker and still
// produce the single-process bytes, with the retries visible in metrics.
func TestParityDistributedRetry(t *testing.T) {
	healthy := startWorker(t)
	target, err := url.Parse(healthy)
	if err != nil {
		t.Fatal(err)
	}
	var failures atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failures.Add(1) <= 2 {
			http.Error(w, `{"error":"worker killed"}`, http.StatusInternalServerError)
			return
		}
		httputil.NewSingleHostReverseProxy(target).ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)

	s, err := periodica.NewSeries(paritySymbols(605))
	if err != nil {
		t.Fatal(err)
	}
	opt := periodica.Options{Threshold: 0.6, MinPairs: 3, MaxPatternPeriod: 21}
	want, err := mine(s, opt)
	if err != nil {
		t.Fatal(err)
	}

	retriesBefore := obs.Dist().Retries.Value()
	c := distCoordinator(t, dist.Config{
		Workers:      []string{flaky.URL, healthy},
		RetryBackoff: time.Millisecond,
	})
	got, err := c.Mine(context.Background(), s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("result differs from Mine after worker failures")
	}
	if obs.Dist().Retries.Value() == retriesBefore {
		t.Error("worker failures produced no retries in /metrics")
	}
}

// TestParityDistributedHedge stalls one worker indefinitely: the hedge
// timer must re-dispatch its shards to the healthy worker, first response
// wins, and the merged result must still match the single-process bytes.
func TestParityDistributedHedge(t *testing.T) {
	healthy := startWorker(t)
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body first: the server cannot watch for client
		// disconnect while unread request bytes are buffered.
		_, _ = io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
	}))
	t.Cleanup(stalled.Close)

	s, err := periodica.NewSeries(paritySymbols(605))
	if err != nil {
		t.Fatal(err)
	}
	opt := periodica.Options{Threshold: 0.6, MinPairs: 3, MaxPatternPeriod: 21}
	want, err := mine(s, opt)
	if err != nil {
		t.Fatal(err)
	}

	hedgesBefore := obs.Dist().Hedges.Value()
	c := distCoordinator(t, dist.Config{
		Workers:    []string{stalled.URL, healthy},
		HedgeAfter: 20 * time.Millisecond,
	})
	got, err := c.Mine(context.Background(), s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("result differs from Mine after hedged re-dispatch")
	}
	if obs.Dist().Hedges.Value() == hedgesBefore {
		t.Error("a stalled worker produced no hedges in /metrics")
	}
}

// TestParityDistributedQueryDriven closes the loop the acceptance criteria
// name: a mine whose parameters arrive as a query string must produce the
// same bytes through the sharded coordinator as the struct-driven local
// mine, at any worker count. The coordinator re-renders the options to the
// canonical query for the shard wire, so this also exercises the
// compile → render → compile fixed point end to end over HTTP.
func TestParityDistributedQueryDriven(t *testing.T) {
	workers := startWorkers(t, distWorkerCount(t))
	s, err := periodica.NewSeries(paritySymbols(605))
	if err != nil {
		t.Fatal(err)
	}
	opt := periodica.Options{Threshold: 0.6, MinPairs: 3, MaxPatternPeriod: 21}
	q, err := periodica.CompileQuery(periodica.QueryFromOptions(opt).String())
	if err != nil {
		t.Fatal(err)
	}
	want, err := mine(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Periodicities) == 0 {
		t.Fatal("parity fixture detected nothing; the test is vacuous")
	}
	for _, spw := range []int{1, 3} {
		c := distCoordinator(t, dist.Config{Workers: workers, ShardsPerWorker: spw})
		got, err := c.Mine(context.Background(), s, q.Options())
		if err != nil {
			t.Fatalf("shardsPerWorker=%d: %v", spw, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("shardsPerWorker=%d: query-driven distributed result differs from struct-driven Mine", spw)
		}
	}
}
