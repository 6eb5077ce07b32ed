// Command opserve runs the mining service over HTTP:
//
//	opserve -addr :8723
//
//	curl -s localhost:8723/healthz
//	curl -s localhost:8723/v1/mine -d '{"symbols":"abcabbabcb","threshold":0.66}'
//	curl -s localhost:8723/v1/candidates -d '{"values":[1,5,9,1,5,9],"levels":3,"threshold":1}'
//	curl -s localhost:8723/metrics
//
// The server shuts down gracefully on SIGINT/SIGTERM: /readyz starts
// reporting 503 so load balancers stop routing, in-flight requests are
// drained for up to -drain-timeout, and the process exits 0 on a clean
// drain.
//
// /metrics includes the mining pipeline's own instrumentation —
// periodica_stage_duration_seconds{stage} per pipeline stage and
// periodica_exec_queue_depth for the execution scheduler — alongside
// the HTTP request counters and histograms.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"periodica"
	"periodica/internal/dist"
	"periodica/internal/httpapi"
)

// parseWorkers splits the -workers flag: comma-separated base URLs with
// whitespace tolerated, empties dropped, and trailing slashes trimmed (the
// shard client appends its own path).
func parseWorkers(s string) []string {
	var out []string
	for _, w := range strings.Split(s, ",") {
		if w = strings.TrimSpace(w); w != "" {
			out = append(out, strings.TrimRight(w, "/"))
		}
	}
	return out
}

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8723", "listen address")
	maxConcurrency := flag.Int("max-concurrency", 0, "max simultaneous mining requests (0 = 2×GOMAXPROCS); excess requests are shed with 429")
	requestTimeout := flag.Duration("request-timeout", httpapi.DefaultRequestTimeout, "per-request mining deadline (0 = default, negative = no deadline)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight requests on shutdown")
	pprof := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	workers := flag.String("workers", "", "comma-separated worker base URLs; when set, /v1/mine is sharded across them (this process coordinates)")
	shardsPerWorker := flag.Int("shards-per-worker", 0, "distributed: target shards per worker (0 = default 2)")
	shardAttempts := flag.Int("shard-attempts", 0, "distributed: dispatch attempts per shard before local fallback (0 = default 3)")
	shardBackoff := flag.Duration("shard-retry-backoff", 0, "distributed: base retry backoff, doubled per attempt with jitter (0 = default 100ms)")
	hedgeAfter := flag.Duration("hedge-after", 0, "distributed: re-dispatch a straggling shard to a second worker after this long (0 = off)")
	noLocalFallback := flag.Bool("no-local-fallback", false, "distributed: fail a shard that exhausts its attempts instead of computing it locally")
	shardSeed := flag.Int64("shard-seed", 0, "distributed: seed for retry jitter and verification sampling, for reproducible runs (0 = default seed 1)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "distributed: consecutive failures that open a worker's circuit (0 = default 3)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "distributed: open-circuit cooldown before a half-open probe, doubled per failed probe (0 = default 1s)")
	verifyShards := flag.Float64("verify-shards", 0, "distributed: fraction of shards (0..1) double-dispatched to a second worker and cross-checked; mismatches are recomputed locally")
	shardJournal := flag.String("shard-journal", "", "distributed: checkpoint completed shards to this file so an interrupted mine resumes instead of restarting")
	defaultQuery := flag.String("query", "", "default pattern query for requests that carry no mining parameters (default $PERIODICA_QUERY)")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	// The default query is compiled once at startup — a typo fails the boot,
	// not the first parameterless request — and the canonical form is what
	// the handlers apply and the logs show.
	querySrc := *defaultQuery
	if querySrc == "" {
		querySrc = os.Getenv("PERIODICA_QUERY")
	}
	if querySrc != "" {
		q, err := periodica.CompileQuery(querySrc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "opserve: -query: %v\n", err)
			return 1
		}
		querySrc = q.String()
		logger.Info("default pattern query set", "query", querySrc)
	}

	var distributor httpapi.Distributor
	if urls := parseWorkers(*workers); len(urls) > 0 {
		coord, err := dist.New(dist.Config{
			Workers:              urls,
			ShardsPerWorker:      *shardsPerWorker,
			MaxAttempts:          *shardAttempts,
			RetryBackoff:         *shardBackoff,
			HedgeAfter:           *hedgeAfter,
			DisableLocalFallback: *noLocalFallback,
			Seed:                 *shardSeed,
			BreakerThreshold:     *breakerThreshold,
			BreakerCooldown:      *breakerCooldown,
			VerifyShards:         *verifyShards,
			ResumeJournal:        *shardJournal,
			Logger:               logger,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "opserve: %v\n", err)
			return 1
		}
		distributor = coord
		logger.Info("distributed mining enabled",
			"workers", urls, "hedgeAfter", *hedgeAfter, "localFallback", !*noLocalFallback,
			"verifyShards", *verifyShards, "journal", *shardJournal)
	}

	api := httpapi.New(httpapi.Config{
		MaxConcurrency: *maxConcurrency,
		RequestTimeout: *requestTimeout,
		EnablePprof:    *pprof,
		Logger:         logger,
		Distributor:    distributor,
		DefaultQuery:   querySrc,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "opserve: listen %s: %v\n", *addr, err)
		return 1
	}

	hs := &http.Server{
		Handler:           api,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		WriteTimeout:      5 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logger.Info("periodica mining service listening", "addr", ln.Addr().String())
	if err := api.Run(ctx, hs, ln, *drainTimeout); err != nil {
		logger.Error("server error", "err", err)
		return 1
	}
	logger.Info("shutdown complete")
	return 0
}
