// Package dist is the distributed mining tier: a coordinator that cuts a
// mine into (symbol × candidate-period) shards, dispatches them to worker
// nodes over the httpapi /v1/shard endpoint, and merges the returned slots
// into a Result byte-identical to a single-process mine at any shard plan.
//
// Fault handling: each worker sits behind a circuit breaker (closed →
// open after consecutive failures → half-open probe after a cooldown); a
// failed shard is retried on another worker with seeded jittered exponential
// backoff — floored by any Retry-After the worker sent — up to a bounded
// attempt budget; a straggling shard is optionally hedged — re-dispatched
// once to a second worker, first response wins; and a shard that exhausts
// its budget falls back to local in-process computation unless disabled.
// Hedging is duplicate-safe because a shard's result is accepted exactly
// once, keyed by its shard ID, and the merge re-derives every confidence
// from integer counts.
//
// Trust: every /v1/shard response is a frame whose CRC and request-CRC echo
// the client verifies before the coordinator sees it; a response that fails
// is a retryable integrity error, counted in obs.Dist(). An optional sampled
// fraction of shards is double-dispatched to an independent worker and
// cross-checked byte-for-byte. An optional journal checkpoints completed
// shards through the store's crash-safe framing, so an interrupted mine
// resumes from its last durable shard instead of restarting.
package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"sync"
	"time"

	"periodica"
	"periodica/internal/alphabet"
	"periodica/internal/core"
	"periodica/internal/exec"
	"periodica/internal/httpapi"
	"periodica/internal/iofault"
	"periodica/internal/obs"
	"periodica/internal/query"
	"periodica/internal/result"
	"periodica/internal/series"
	"periodica/internal/store"
)

// Config tunes a Coordinator.
type Config struct {
	// Workers are worker base URLs ("http://host:port"); at least one.
	Workers []string
	// ShardsPerWorker scales the shard plan: the coordinator targets
	// ShardsPerWorker × len(Workers) shards, so a slow worker delays at
	// most 1/target of the mine. Default 2.
	ShardsPerWorker int
	// MaxAttempts bounds the dispatch attempts per shard, including the
	// first. Default 3.
	MaxAttempts int
	// RetryBackoff is the base delay before a retry, doubled per attempt
	// with ±50% jitter. Default 100ms.
	RetryBackoff time.Duration
	// HedgeAfter re-dispatches a shard to a second worker when the first
	// has not answered within this window; the first response wins and the
	// loser is discarded. 0 disables hedging.
	HedgeAfter time.Duration
	// Seed seeds the coordinator's random stream (backoff jitter,
	// verification sampling), so a run is reproducible; 0 means seed 1.
	Seed int64
	// BreakerThreshold is the consecutive-failure count that opens a
	// worker's circuit. Default 3.
	BreakerThreshold int
	// BreakerCooldown is how long an opened circuit refuses requests before
	// admitting a half-open probe; it doubles each time the probe fails.
	// Default 1s.
	BreakerCooldown time.Duration
	// VerifyShards is the fraction of successful remote shards (0..1) that
	// are double-dispatched to an independent worker and compared
	// byte-for-byte; a mismatch is counted and the shard recomputed locally.
	// 0 disables verification.
	VerifyShards float64
	// ResumeJournal, when set, is a file path where completed shards are
	// checkpointed: an interrupted Mine re-run with the same inputs skips
	// the journaled shards. The journal is deleted when a mine completes.
	ResumeJournal string
	// Client issues the shard calls; nil means a zero httpapi.ShardClient.
	Client *httpapi.ShardClient
	// DisableLocalFallback turns exhausting a shard's attempt budget into a
	// hard error instead of computing the shard in-process.
	DisableLocalFallback bool
	// Logger receives dispatch warnings; nil means slog.Default().
	Logger *slog.Logger
}

// Coordinator implements httpapi.Distributor over a fixed worker set.
type Coordinator struct {
	cfg    Config
	client *httpapi.ShardClient
	log    *slog.Logger

	mu       sync.Mutex
	rr       int // round-robin cursor over cfg.Workers
	breakers *breakerSet

	rngMu sync.Mutex
	rng   *rand.Rand

	journalMu sync.Mutex // one journaled mine at a time

	// afterJournal, when set by in-package tests, observes the running count
	// of journal records after each append — the hook kill-and-resume tests
	// use to interrupt a mine at an exact checkpoint.
	afterJournal func(appended int)
}

// New builds a Coordinator; it requires at least one worker URL.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("dist: at least one worker required")
	}
	if cfg.ShardsPerWorker <= 0 {
		cfg.ShardsPerWorker = 2
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 100 * time.Millisecond
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = time.Second
	}
	if cfg.VerifyShards < 0 || cfg.VerifyShards > 1 {
		return nil, fmt.Errorf("dist: VerifyShards %v outside [0,1]", cfg.VerifyShards)
	}
	if cfg.Client == nil {
		cfg.Client = &httpapi.ShardClient{}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Coordinator{
		cfg:      cfg,
		client:   cfg.Client,
		log:      cfg.Logger,
		breakers: newBreakerSet(cfg.BreakerThreshold, cfg.BreakerCooldown),
		rng:      rand.New(rand.NewSource(seed)),
	}, nil
}

// Mine shards the request across the worker set and reassembles the result.
// It is byte-identical to periodica.MineQueryContext on the same series and
// the query QueryFromOptions(opt): the wire carries integer counts only,
// every engine computes identical slot values, and the merge applies the
// same canonical sort and pattern enumeration a single-process mine does.
func (c *Coordinator) Mine(ctx context.Context, s *periodica.Series, opt periodica.Options) (*periodica.Result, error) {
	alpha, err := alphabet.New(s.Alphabet()...)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	text := s.String()
	ser, err := series.FromAlphabetText(alpha, text)
	if err != nil {
		// The wire format carries single-rune symbols; a series whose text
		// does not round-trip cannot be distributed.
		return nil, fmt.Errorf("dist: series is not wire-encodable: %w", err)
	}
	copt, err := coreOptions(opt)
	if err != nil {
		return nil, err
	}
	norm, err := core.NormalizeOptions(copt, ser.Len())
	if err != nil {
		return nil, err
	}
	if norm.MinPeriod > norm.MaxPeriod {
		return &periodica.Result{}, nil // no candidate periods (n = 1): nothing to shard
	}
	target := c.cfg.ShardsPerWorker * len(c.cfg.Workers)
	plan := exec.PlanShards(alpha.Size(), norm.MinPeriod, norm.MaxPeriod, target)
	if len(plan) == 0 {
		return nil, fmt.Errorf("dist: empty shard plan for periods [%d,%d]", norm.MinPeriod, norm.MaxPeriod)
	}

	// Run the detect and sweep stages once here and ship each shard its
	// survivor slice, so a worker only resolves its own cells. Skipped
	// shards' survivors cost nothing extra — the computation is shared
	// across the plan.
	surv, err := core.ShardSurvivors(ctx, ser, norm)
	if err != nil {
		return nil, err
	}

	var jr *journalRun
	if c.cfg.ResumeJournal != "" {
		c.journalMu.Lock()
		defer c.journalMu.Unlock()
		jr, err = c.openJournal(mineKey(alpha.Symbols(), text, norm), len(plan))
		if err != nil {
			return nil, err
		}
		defer func() { _ = jr.j.Close() }() // no-op after a completed mine's Remove
	}

	// Every shard carries the mine's canonical query string: the worker
	// compiles exactly what the coordinator normalized (modulo the per-shard
	// period band), and the response's echo of the request frame's CRC
	// proves it answered that query, block and series.
	normSpec := core.SpecFromOptions(norm)
	canonical := normSpec.Render()
	results := make([][]core.SymbolPeriodicity, len(plan))
	errs := make([]error, len(plan))
	var wg sync.WaitGroup
	for i, sh := range plan {
		req := httpapi.ShardRequest{
			ShardID:   sh.ID,
			Alphabet:  alpha.Symbols(),
			Symbols:   text,
			Query:     canonical,
			MinPeriod: sh.MinPeriod, MaxPeriod: sh.MaxPeriod,
			SymbolLo: sh.SymbolLo, SymbolHi: sh.SymbolHi,
			Survivors: clipSurvivors(surv, sh, norm.MinPeriod),
		}
		if jr != nil {
			if wire, ok := jr.completed(sh.ID); ok {
				results[i] = slotsFromWire(wire)
				continue
			}
		}
		wg.Add(1)
		go func(i, shardID int, req httpapi.ShardRequest) {
			defer wg.Done()
			wire, err := c.runShard(ctx, ser, norm, &req, httpapi.EncodeShardRequest(&req))
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = slotsFromWire(wire)
			if jr != nil {
				n, err := jr.record(shardID, wire)
				if err != nil {
					errs[i] = err
					return
				}
				if c.afterJournal != nil {
					c.afterJournal(n)
				}
			}
		}(i, sh.ID, req)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	var slots []core.SymbolPeriodicity
	for _, part := range results {
		slots = append(slots, part...)
	}
	res, err := core.AssembleFromSlots(ctx, ser, norm, slots)
	if err != nil {
		return nil, err
	}
	if jr != nil {
		// The mine is assembled; the checkpoint has nothing left to resume.
		if err := jr.j.Remove(); err != nil {
			c.log.Warn("removing completed resume journal failed", "path", c.cfg.ResumeJournal, "err", err)
		}
	}
	return result.FromCore(alpha, res, opt.MaximalOnly), nil
}

// clipSurvivors slices the full-plan survivor set down to one shard's period
// band and symbol range.
func clipSurvivors(surv [][]int32, sh exec.Shard, minPeriod int) [][]int32 {
	band := make([][]int32, 0, sh.MaxPeriod-sh.MinPeriod+1)
	for p := sh.MinPeriod; p <= sh.MaxPeriod; p++ {
		var clipped []int32
		for _, k := range surv[p-minPeriod] {
			if int(k) >= sh.SymbolLo && int(k) < sh.SymbolHi {
				clipped = append(clipped, k)
			}
		}
		band = append(band, clipped)
	}
	return band
}

// attemptResult is one dispatch outcome; the winning result per shard is the
// first successful one received.
type attemptResult struct {
	worker  string
	resp    *httpapi.ShardResponse
	err     error
	elapsed time.Duration
}

// runShard drives one shard to completion: dispatch, bounded retries with
// jittered backoff, an optional single hedge, and the local fallback. Every
// attempt sends the same request frame, encoded once by the caller. The
// result channel is buffered for every launch the budget allows, so a
// discarded (hedged-loser or post-fallback) attempt never blocks and its
// goroutine always exits.
func (c *Coordinator) runShard(ctx context.Context, ser *series.Series, norm core.Options, req *httpapi.ShardRequest, frame []byte) ([]httpapi.ShardSlot, error) {
	shardCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	resCh := make(chan attemptResult, c.cfg.MaxAttempts+1)
	inFlight := map[string]bool{}
	launch := func(excludeInFlight bool) {
		var exclude map[string]bool
		if excludeInFlight {
			exclude = inFlight
		}
		worker := c.pickWorker(exclude)
		inFlight[worker] = true
		//opvet:ignore goroleak joined by the select receive on resCh in runShard; the buffer holds every possible launch so a losing attempt's send never blocks
		go func() {
			start := time.Now()
			resp, err := c.client.MineShard(shardCtx, worker, frame)
			resCh <- attemptResult{worker: worker, resp: resp, err: err, elapsed: time.Since(start)}
		}()
	}

	attempts := 1 // budgeted launches; the hedge is extra
	pending := 1
	launch(false)

	var hedgeC <-chan time.Time
	if c.cfg.HedgeAfter > 0 && len(c.cfg.Workers) > 1 {
		hedgeTimer := time.NewTimer(c.cfg.HedgeAfter)
		defer hedgeTimer.Stop()
		hedgeC = hedgeTimer.C
	}
	var backoffC <-chan time.Time
	var backoffFloor time.Duration // largest Retry-After seen from a worker

	for {
		select {
		case r := <-resCh:
			pending--
			delete(inFlight, r.worker)
			c.noteResult(r.worker, r.err == nil)
			if r.err == nil {
				obs.Dist().ObserveShard(r.worker, r.elapsed)
				if c.shouldVerify() && !c.crossVerify(shardCtx, req.ShardID, frame, r) {
					obs.Dist().VerifyMismatches.Inc()
					c.log.Error("shard verification mismatch: independent workers disagree",
						"shard", req.ShardID, "worker", r.worker)
					// Neither response can be trusted; the local computation
					// is the authoritative tiebreak.
					return c.localFallback(ctx, ser, norm, req,
						fmt.Errorf("verification mismatch on worker %s", r.worker))
				}
				return r.resp.Slots, nil
			}
			var ie *httpapi.ShardIntegrityError
			if errors.As(r.err, &ie) {
				obs.Dist().IntegrityFailures.Inc()
			}
			var wse *httpapi.WorkerStatusError
			if errors.As(r.err, &wse) && wse.RetryAfter > backoffFloor {
				backoffFloor = wse.RetryAfter
			}
			if !retryable(r.err) {
				return nil, fmt.Errorf("dist: shard %d: %w", req.ShardID, r.err)
			}
			c.log.Warn("shard attempt failed", "shard", req.ShardID, "worker", r.worker, "err", r.err)
			switch {
			case backoffC != nil || pending > 0:
				// A retry is already scheduled or another attempt (the
				// hedge) is still in flight; let it play out.
			case attempts < c.cfg.MaxAttempts:
				d := c.jitteredBackoff(attempts)
				if d < backoffFloor {
					d = backoffFloor
				}
				backoff := time.NewTimer(d)
				defer backoff.Stop()
				backoffC = backoff.C
			default:
				return c.localFallback(ctx, ser, norm, req, r.err)
			}
		case <-backoffC:
			backoffC = nil
			attempts++
			pending++
			obs.Dist().Retries.Inc()
			launch(false)
		case <-hedgeC:
			hedgeC = nil
			if pending > 0 {
				pending++
				obs.Dist().Hedges.Inc()
				c.log.Info("hedging straggler shard", "shard", req.ShardID)
				launch(true)
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// shouldVerify samples the seeded stream for whether to double-check the
// next successful shard. Verification needs a second, independent worker.
func (c *Coordinator) shouldVerify() bool {
	if c.cfg.VerifyShards <= 0 || len(c.cfg.Workers) < 2 {
		return false
	}
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return c.rng.Float64() < c.cfg.VerifyShards
}

// crossVerify re-dispatches the shard's request frame to a worker other than
// the one that answered and compares the two response frames byte-for-byte:
// both echo the same request, so they are equal exactly when their slot
// bytes are. It reports false only on a definite mismatch: an unavailable or
// failing verifier means the check is inconclusive, which must not fail a
// shard that already succeeded.
func (c *Coordinator) crossVerify(ctx context.Context, shardID int, frame []byte, first attemptResult) bool {
	verifier := c.pickWorker(map[string]bool{first.worker: true})
	if verifier == first.worker {
		return true // no independent worker available; inconclusive
	}
	resp, err := c.client.MineShard(ctx, verifier, frame)
	c.noteResult(verifier, err == nil)
	if err != nil {
		c.log.Warn("shard verification dispatch failed; check inconclusive",
			"shard", shardID, "verifier", verifier, "err", err)
		return true
	}
	return bytes.Equal(resp.Frame, first.resp.Frame)
}

// localFallback computes the shard in-process after the attempt budget is
// exhausted — degraded (the coordinator spends its own CPU) but correct,
// since resolving the request's own clipped survivors with
// MineShardSlotsFromSurvivors is the exact computation a worker runs.
func (c *Coordinator) localFallback(ctx context.Context, ser *series.Series, norm core.Options, req *httpapi.ShardRequest, cause error) ([]httpapi.ShardSlot, error) {
	if c.cfg.DisableLocalFallback {
		return nil, fmt.Errorf("dist: shard %d failed remotely: %w", req.ShardID, cause)
	}
	c.log.Warn("computing shard locally", "shard", req.ShardID, "cause", cause)
	obs.Dist().LocalFallbacks.Inc()
	shardOpt := norm
	shardOpt.MinPeriod, shardOpt.MaxPeriod = req.MinPeriod, req.MaxPeriod
	slots, err := core.MineShardSlotsFromSurvivors(ctx, ser, shardOpt, req.SymbolLo, req.SymbolHi, req.Survivors)
	if err != nil {
		return nil, err
	}
	return httpapi.WireSlots(slots), nil
}

// jitteredBackoff is the delay before retry number attempt (1-based over
// completed launches): base × 2^(attempt−1), uniformly jittered over
// [0.5×, 1.5×) from the coordinator's seeded stream.
func (c *Coordinator) jitteredBackoff(attempt int) time.Duration {
	d := c.cfg.RetryBackoff << (attempt - 1)
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return d/2 + time.Duration(c.rng.Int63n(int64(d)))
}

// pickWorker chooses the next worker round-robin, preferring workers whose
// circuit admits a request and that are not in exclude; it degrades to
// excluded or refusing workers rather than returning none, because a guess
// at a bad worker still beats giving up. Choosing a worker with an elapsed
// cooldown claims its half-open probe slot.
func (c *Coordinator) pickWorker(exclude map[string]bool) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.breakers.now()
	n := len(c.cfg.Workers)
	best, bestRank := c.rr%n, 99
	for i := 0; i < n; i++ {
		idx := (c.rr + i) % n
		w := c.cfg.Workers[idx]
		rank := c.breakers.get(w).rank(now)
		if exclude[w] {
			rank += 3
		}
		if rank < bestRank {
			best, bestRank = idx, rank
			if rank == 0 {
				break
			}
		}
	}
	w := c.cfg.Workers[best]
	c.breakers.get(w).allow(now) // claim the probe slot when half-open
	c.rr = (best + 1) % n
	return w
}

// noteResult feeds a request outcome to the worker's circuit breaker.
func (c *Coordinator) noteResult(worker string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.breakers.get(worker).note(ok, c.breakers.now())
}

// retryable reports whether another dispatch of the same shard could
// succeed: transport failures, integrity failures, and shed/5xx worker
// replies are retryable; context expiry and request rejections (4xx) are
// not.
func retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var wse *httpapi.WorkerStatusError
	if errors.As(err, &wse) {
		return wse.Retryable()
	}
	return true
}

// slotsFromWire converts wire slots to core periodicities. Confidence stays
// zero: AssembleFromSlots re-derives it from the integer counts.
func slotsFromWire(in []httpapi.ShardSlot) []core.SymbolPeriodicity {
	out := make([]core.SymbolPeriodicity, 0, len(in))
	for _, sl := range in {
		out = append(out, core.SymbolPeriodicity{
			Symbol: sl.Symbol, Period: sl.Period, Position: sl.Position,
			F2: sl.F2, Pairs: sl.Pairs,
		})
	}
	return out
}

// coreOptions lowers public options to core options through the query layer:
// lift to the canonical query, compile it (cached, validated), convert. The
// coordinator thus mines under exactly the Spec its shards announce on the
// wire; the distributed parity suite pins this against the root package's own
// conversion, so drift breaks a test rather than byte-identity in production.
func coreOptions(o periodica.Options) (core.Options, error) {
	sp, err := query.Compile(periodica.QueryFromOptions(o).String())
	if err != nil {
		return core.Options{}, fmt.Errorf("dist: %w", err)
	}
	return core.OptionsFromSpec(sp)
}

// journalHeader is a resume journal's first record: it binds the checkpoint
// to one exact mine, so a journal left by different inputs is discarded
// instead of poisoning the merge.
type journalHeader struct {
	Key    uint32 `json:"key"`
	Shards int    `json:"shards"`
}

// journalShard is one completed shard's checkpoint record.
type journalShard struct {
	ShardID int                 `json:"shardId"`
	Slots   []httpapi.ShardSlot `json:"slots"`
}

// journalRun is the live journal of one Mine call.
type journalRun struct {
	j        *store.Journal
	mu       sync.Mutex
	done     map[int][]httpapi.ShardSlot
	appended int
}

// completed returns a shard's journaled slots, if checkpointed.
func (jr *journalRun) completed(shardID int) ([]httpapi.ShardSlot, bool) {
	jr.mu.Lock()
	defer jr.mu.Unlock()
	wire, ok := jr.done[shardID]
	return wire, ok
}

// record checkpoints one completed shard and returns the running record
// count. The append fsyncs, so a record returned here survives any crash.
func (jr *journalRun) record(shardID int, wire []httpapi.ShardSlot) (int, error) {
	payload, err := json.Marshal(journalShard{ShardID: shardID, Slots: wire})
	if err != nil {
		return 0, err
	}
	jr.mu.Lock()
	defer jr.mu.Unlock()
	if err := jr.j.Append(payload); err != nil {
		return 0, fmt.Errorf("dist: checkpointing shard %d: %w", shardID, err)
	}
	jr.appended++
	return jr.appended, nil
}

var journalCRCTable = crc32.MakeTable(crc32.Castagnoli)

// mineKey fingerprints a mine's exact inputs — alphabet, text, normalized
// options — so a journal only ever resumes the mine that wrote it.
func mineKey(alpha []string, text string, norm core.Options) uint32 {
	h := crc32.New(journalCRCTable)
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		_, _ = h.Write(b[:])
	}
	put(uint64(httpapi.AlphabetCRC(alpha)))
	put(uint64(len(text)))
	_, _ = io.WriteString(h, text)
	put(math.Float64bits(norm.Threshold))
	put(uint64(int64(norm.MinPeriod)))
	put(uint64(int64(norm.MaxPeriod)))
	put(uint64(int64(norm.MinPairs)))
	put(uint64(int64(norm.Engine)))
	put(uint64(int64(norm.MaxPatternPeriod)))
	put(uint64(int64(norm.MaxPatterns)))
	return h.Sum32()
}

// openJournal opens the configured resume journal, replays any checkpoint
// that matches this mine's key and plan size, and writes the header when
// starting fresh. A journal from different inputs is removed, not reused.
func (c *Coordinator) openJournal(key uint32, planLen int) (*journalRun, error) {
	j, recs, err := store.OpenJournal(iofault.OS(), c.cfg.ResumeJournal)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	done := map[int][]httpapi.ShardSlot{}
	matches := false
	if len(recs) > 0 {
		var hdr journalHeader
		if json.Unmarshal(recs[0], &hdr) == nil && hdr.Key == key && hdr.Shards == planLen {
			matches = true
			for _, rec := range recs[1:] {
				var sh journalShard
				if err := json.Unmarshal(rec, &sh); err != nil {
					// CRC-framed records should always decode; treat damage
					// past the framing like a torn tail and stop replaying.
					c.log.Warn("undecodable journal record; resuming from earlier prefix", "err", err)
					break
				}
				if sh.ShardID < 0 || sh.ShardID >= planLen {
					c.log.Warn("journal record names an unknown shard; ignoring", "shard", sh.ShardID)
					continue
				}
				done[sh.ShardID] = sh.Slots
			}
		}
	}
	if !matches && len(recs) > 0 {
		c.log.Warn("resume journal belongs to a different mine; starting fresh", "path", c.cfg.ResumeJournal)
		if err := j.Remove(); err != nil {
			return nil, fmt.Errorf("dist: resetting stale journal: %w", err)
		}
		if j, _, err = store.OpenJournal(iofault.OS(), c.cfg.ResumeJournal); err != nil {
			return nil, fmt.Errorf("dist: %w", err)
		}
	}
	if !matches {
		payload, err := json.Marshal(journalHeader{Key: key, Shards: planLen})
		if err != nil {
			return nil, err
		}
		if err := j.Append(payload); err != nil {
			_ = j.Close() // the append error is the one worth reporting
			return nil, fmt.Errorf("dist: writing journal header: %w", err)
		}
	}
	if len(done) > 0 {
		obs.Dist().ResumedMines.Inc()
		obs.Dist().ResumedShards.Add(int64(len(done)))
		c.log.Info("resuming mine from journal",
			"path", c.cfg.ResumeJournal, "completedShards", len(done), "totalShards", planLen)
	}
	return &journalRun{j: j, done: done, appended: len(done)}, nil
}
