package dist

// The chaos sweep: every netfault failure mode crossed with every dispatch
// stage (first attempt, retry, hedge), driven against real workers through a
// seeded injector. The invariant is the distributed tier's core promise —
// whatever the network does, a mine either fails loudly or returns bytes
// identical to the single-process result. There is no third outcome: a
// corrupt response is rejected by the integrity layer (and counted), never
// merged. Failures reproduce from the printed seed; set
// PERIODICA_NETFAULT_SEED to replay or widen the sweep.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"

	"periodica/internal/httpapi"
	"periodica/internal/netfault"
	"periodica/internal/obs"
)

// lyingWorker serves real /v1/shard responses with one slot perturbed in a
// frame with a valid CRC and echo — internally consistent, externally wrong,
// the case only cross-worker verification can catch.
func lyingWorker(t *testing.T) string {
	t.Helper()
	real := httpapi.New(httpapi.Config{Logger: discard()})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		frame, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		rec := httptest.NewRecorder()
		real.ServeHTTP(rec, httptest.NewRequest(r.Method, r.URL.Path, bytes.NewReader(frame)))
		resp, err := httpapi.VerifyShardResponse(frame, rec.Body.Bytes())
		if rec.Code != http.StatusOK || err != nil || len(resp.Slots) == 0 {
			for k, vs := range rec.Header() {
				w.Header()[k] = vs
			}
			w.WriteHeader(rec.Code)
			_, _ = w.Write(rec.Body.Bytes())
			return
		}
		if resp.Slots[0].F2 > 1 {
			resp.Slots[0].F2--
		} else {
			resp.Slots[0].Pairs++
		}
		_, _ = w.Write(httpapi.EncodeShardResponse(frame, resp.Slots))
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// sweepSeed is 1 unless PERIODICA_NETFAULT_SEED overrides it.
func sweepSeed(t *testing.T) int64 {
	t.Helper()
	env := os.Getenv("PERIODICA_NETFAULT_SEED")
	if env == "" {
		return 1
	}
	v, err := strconv.ParseInt(env, 10, 64)
	if err != nil {
		t.Fatalf("bad PERIODICA_NETFAULT_SEED %q: %v", env, err)
	}
	return v
}

// shardKey buckets requests by the shard they carry, so "fault attempt N of
// every shard" is deterministic under concurrent dispatch. The shard ID is
// read from the request frame; TestSeededNetfaultSweep checks that the
// buckets come out one per planned shard.
func shardKey(r *http.Request) string {
	req, err := httpapi.DecodeShardRequest(netfault.PeekBody(r))
	if err != nil {
		return "undecodable"
	}
	return strconv.Itoa(req.ShardID)
}

func TestSeededNetfaultSweep(t *testing.T) {
	seed := sweepSeed(t)
	s := fixture(t)
	want := mustMine(t, s, fixtureOpt)
	workers := []string{worker(t), worker(t)}
	shards := planSize(t, len(workers))

	faults := []netfault.Plan{
		{Fault: netfault.FaultDrop},
		{Fault: netfault.FaultDelay, Delay: 30 * time.Millisecond},
		{Fault: netfault.FaultDuplicate},
		{Fault: netfault.FaultTruncate},
		{Fault: netfault.FaultBitFlip},
		{Fault: netfault.FaultStatus, Status: 500},
		{Fault: netfault.FaultStatus, Status: 429, RetryAfterSecs: 1},
	}
	stages := []string{"first", "retry", "hedge"}

	integrityBefore := obs.Dist().IntegrityFailures.Value()
	for _, plan := range faults {
		for _, stage := range stages {
			plan, stage := plan, stage
			t.Run(fmt.Sprintf("%v_%s_%d", plan.Fault, stage, plan.Status), func(t *testing.T) {
				cfg := Config{
					Workers: workers, RetryBackoff: 2 * time.Millisecond,
					Seed: seed, Logger: discard(),
				}
				// The swept fault rides on inj; the stage decides which
				// request ordinal it hits and what (if anything) steers the
				// coordinator into that stage first.
				var inj *netfault.Injector
				var transport http.RoundTripper
				switch stage {
				case "first":
					p := plan
					p.Attempt = 1
					inj = netfault.New(nil, p, seed)
					inj.SetKeyFunc(shardKey)
					transport = inj
				case "retry":
					// An outer drop loses every shard's first response, so
					// the swept fault lands on the retry dispatch.
					p := plan
					p.Attempt = 2
					inj = netfault.New(nil, p, seed)
					inj.SetKeyFunc(shardKey)
					trigger := netfault.New(inj, netfault.Plan{Fault: netfault.FaultDrop, Attempt: 1}, seed)
					trigger.SetKeyFunc(shardKey)
					transport = trigger
				case "hedge":
					// An outer delay straggles every first attempt well past
					// HedgeAfter; the hedge reaches the inner injector first,
					// so the swept fault lands on the hedge dispatch.
					p := plan
					p.Attempt = 1
					inj = netfault.New(nil, p, seed)
					inj.SetKeyFunc(shardKey)
					straggle := netfault.New(inj, netfault.Plan{
						Fault: netfault.FaultDelay, Attempt: 1, Delay: 500 * time.Millisecond,
					}, seed)
					straggle.SetKeyFunc(shardKey)
					transport = straggle
					cfg.HedgeAfter = 25 * time.Millisecond
				}
				cfg.Client = &httpapi.ShardClient{HTTP: &http.Client{Transport: transport}}
				c, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := c.Mine(context.Background(), s, fixtureOpt)
				if err != nil {
					t.Fatalf("seed %d, fault %v, stage %s: Mine: %v", seed, plan.Fault, stage, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("seed %d, fault %v, stage %s: distributed result differs from single-process mine",
						seed, plan.Fault, stage)
				}
				if inj.Fired() == 0 {
					t.Fatalf("seed %d, fault %v, stage %s: fault never fired; the cell is vacuous",
						seed, plan.Fault, stage)
				}
				if got := inj.Buckets(); got != shards {
					t.Fatalf("seed %d, fault %v, stage %s: injector saw %d buckets for %d planned shards",
						seed, plan.Fault, stage, got, shards)
				}
			})
		}
	}
	// Corruption cells (truncate, bitflip) must have exercised the rejection
	// path at least once across the sweep.
	if obs.Dist().IntegrityFailures.Value() == integrityBefore {
		t.Errorf("seed %d: the sweep never incremented the integrity-failure counter", seed)
	}
}

// TestCorruptResponsesNeverMerge: with every response mangled and no local
// fallback to hide behind, a mine must fail — it must never return wrong
// bytes. Retries cannot save it: the injector fires on every attempt.
func TestCorruptResponsesNeverMerge(t *testing.T) {
	seed := sweepSeed(t)
	s := fixture(t)
	want := mustMine(t, s, fixtureOpt)
	workers := []string{worker(t), worker(t)}
	for _, fault := range []netfault.Fault{netfault.FaultTruncate, netfault.FaultBitFlip} {
		inj := netfault.New(nil, netfault.Plan{Fault: fault, Attempt: 0}, seed)
		inj.SetKeyFunc(shardKey)
		before := obs.Dist().IntegrityFailures.Value()
		c, err := New(Config{
			Workers: workers, MaxAttempts: 2, RetryBackoff: time.Millisecond,
			DisableLocalFallback: true, Seed: seed,
			Client: &httpapi.ShardClient{HTTP: &http.Client{Transport: inj}},
			Logger: discard(),
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Mine(context.Background(), s, fixtureOpt)
		// A mangled body that happens to stay decodable-and-verifiable (a
		// truncation or flip landing in trailing whitespace) passes through
		// unchanged, so success is legal — but only with identical bytes.
		if err == nil && !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d, fault %v: mine returned wrong bytes instead of failing", seed, fault)
		}
		if err != nil && obs.Dist().IntegrityFailures.Value() == before {
			t.Errorf("seed %d, fault %v: mine failed without counting an integrity failure", seed, fault)
		}
	}
}

// TestPartitionHealsIntoRecovery: a worker partitioned at the network level
// is absorbed by retries and the breaker; healing lets it serve again.
func TestPartitionHealsIntoRecovery(t *testing.T) {
	seed := sweepSeed(t)
	s := fixture(t)
	want := mustMine(t, s, fixtureOpt)
	w0, w1 := worker(t), worker(t)
	inj := netfault.New(nil, netfault.Plan{}, seed)
	c, err := New(Config{
		Workers: []string{w0, w1}, RetryBackoff: time.Millisecond, Seed: seed,
		Client: &httpapi.ShardClient{HTTP: &http.Client{Transport: inj}},
		Logger: discard(),
	})
	if err != nil {
		t.Fatal(err)
	}
	host := w0[len("http://"):]
	inj.Partition(host)
	got, err := c.Mine(context.Background(), s, fixtureOpt)
	if err != nil {
		t.Fatalf("seed %d: Mine under partition: %v", seed, err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("seed %d: result differs under partition", seed)
	}
	inj.Heal(host)
	got, err = c.Mine(context.Background(), s, fixtureOpt)
	if err != nil {
		t.Fatalf("seed %d: Mine after heal: %v", seed, err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("seed %d: result differs after heal", seed)
	}
}

// TestVerifyShardsCleanAndMismatch: sampled double-dispatch passes silently
// when workers agree, and a worker that returns subtly wrong (but
// checksum-consistent) slots is caught by the cross-check and overridden by
// the authoritative local computation.
func TestVerifyShardsCleanAndMismatch(t *testing.T) {
	s := fixture(t)
	want := mustMine(t, s, fixtureOpt)

	mmBefore := obs.Dist().VerifyMismatches.Value()
	c, err := New(Config{
		Workers: []string{worker(t), worker(t)}, VerifyShards: 1.0, Seed: 7,
		Logger: discard(),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Mine(context.Background(), s, fixtureOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("result differs with full verification on")
	}
	if obs.Dist().VerifyMismatches.Value() != mmBefore {
		t.Fatal("honest workers produced a verification mismatch")
	}

	// A lying worker: it answers correctly, then one slot is perturbed and
	// the checksum recomputed, so only cross-worker comparison can catch it.
	honest := worker(t)
	liar := lyingWorker(t)
	c, err = New(Config{
		Workers: []string{liar, honest}, VerifyShards: 1.0, Seed: 7,
		Logger: discard(),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err = c.Mine(context.Background(), s, fixtureOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("result differs despite verification catching the lying worker")
	}
	if obs.Dist().VerifyMismatches.Value() == mmBefore {
		t.Fatal("lying worker never tripped the mismatch counter")
	}
}
