// Package netfault is the narrow seam between the distributed tier and the
// network: a deterministic, seeded fault-injecting http.RoundTripper. It
// plays the role internal/iofault plays for the persistence layers — an
// enumerable set of adversarial network behaviors (drop a response, delay
// it, duplicate the request, truncate or bit-flip the response body, inject
// a 5xx/429, partition a host) that tests sweep exhaustively instead of
// hand-writing one flaky-worker stub per failure mode.
//
// Faults are scripted per *bucket*: every request is assigned a bucket key
// (by default its target host; tests usually key by the shard ID inside the
// request body) and a 1-based attempt number within that bucket, and the
// injector fires when the attempt number matches the plan. Because the
// attempt count is per bucket, concurrent dispatch of many shards cannot
// reorder which request gets faulted — "fault the first attempt of every
// shard" means exactly that, at any interleaving. The same seed, plan, and
// workload always corrupt the same bytes, so a failing sweep cell reproduces
// from its logged (seed, fault, attempt) triple.
//
// Production code never sees this package; the coordinator's ShardClient
// accepts any *http.Client, and tests hand it one whose Transport is an
// Injector.
package netfault

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Errors returned by injected faults. ErrInjected models a response lost in
// flight — the server did the work, the client never saw the answer — so a
// retry after it is a true duplicate delivery. ErrPartitioned models a
// network partition: no bytes reach the host at all.
var (
	ErrInjected    = errors.New("netfault: injected network fault — response dropped")
	ErrPartitioned = errors.New("netfault: host partitioned")
)

// Fault selects what happens at the injection point.
type Fault int

const (
	// FaultNone injects nothing; the injector only counts requests.
	FaultNone Fault = iota
	// FaultDrop performs the round trip, discards the response, and returns
	// ErrInjected — the adversarial kind of drop, where the worker has
	// already done (and will dedupe-merge-test) the work.
	FaultDrop
	// FaultDelay holds the request for Plan.Delay before forwarding it,
	// aborting early if the request context expires — a slow link or a
	// stalled worker, from the caller's point of view.
	FaultDelay
	// FaultDuplicate delivers the request twice (sequentially); the first
	// response is discarded and the second returned, so the server observes
	// a duplicate delivery.
	FaultDuplicate
	// FaultTruncate forwards the request and returns a seeded strict prefix
	// of the response body, with Content-Length rewritten so the truncation
	// is invisible at the HTTP layer — only body-level integrity checks can
	// catch it.
	FaultTruncate
	// FaultBitFlip forwards the request and flips one seeded bit of the
	// response body — the sketch-corruption case: the JSON may still parse
	// with a silently wrong integer.
	FaultBitFlip
	// FaultStatus short-circuits the request with a synthetic Plan.Status
	// response (and optional Retry-After), the way an overloaded worker or
	// an intermediary would.
	FaultStatus
)

// String names the fault for sweep logs.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultDuplicate:
		return "duplicate"
	case FaultTruncate:
		return "truncate"
	case FaultBitFlip:
		return "bitflip"
	case FaultStatus:
		return "status"
	}
	return fmt.Sprintf("fault(%d)", int(f))
}

// Plan is one scripted injection: fire Fault at the Attempt-th request of
// every bucket.
type Plan struct {
	Fault Fault
	// Attempt is the 1-based request index within a bucket at which the
	// fault fires; 0 fires on every request.
	Attempt int64
	// Status is the synthetic response status for FaultStatus.
	Status int
	// RetryAfterSecs, when positive, adds a Retry-After header to the
	// synthetic FaultStatus response.
	RetryAfterSecs int
	// Delay is the hold time for FaultDelay.
	Delay time.Duration
}

// Injector is a fault-injecting http.RoundTripper. The zero value is not
// usable; call New. Safe for concurrent use.
type Injector struct {
	base http.RoundTripper
	key  func(*http.Request) string
	plan Plan
	seed uint64

	mu          sync.Mutex
	counts      map[string]int64
	partitioned map[string]bool
	fired       int64
}

// New wraps base (nil means http.DefaultTransport) with the given plan and
// seed. The default bucket key is the request's target host; SetKeyFunc
// replaces it.
func New(base http.RoundTripper, plan Plan, seed int64) *Injector {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Injector{
		base:        base,
		key:         func(r *http.Request) string { return r.URL.Host },
		plan:        plan,
		seed:        uint64(seed)*2862933555777941757 + 3037000493,
		counts:      map[string]int64{},
		partitioned: map[string]bool{},
	}
}

// SetKeyFunc replaces the bucket-key function. Call before any request is
// issued; the key must be derivable without consuming the request body
// (PeekBody reads a replayable copy).
func (in *Injector) SetKeyFunc(key func(*http.Request) string) { in.key = key }

// Partition cuts the named hosts off: every request to them fails with
// ErrPartitioned until Heal.
func (in *Injector) Partition(hosts ...string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, h := range hosts {
		in.partitioned[h] = true
	}
}

// Heal reconnects a partitioned host.
func (in *Injector) Heal(host string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.partitioned, host)
}

// Fired returns how many times the plan's fault has fired.
func (in *Injector) Fired() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired
}

// Requests returns the total number of requests observed.
func (in *Injector) Requests() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	var n int64
	for _, c := range in.counts {
		n += c
	}
	return n
}

// Buckets returns how many distinct bucket keys the injector has seen.
func (in *Injector) Buckets() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.counts)
}

// PeekBody returns a copy of the request body without consuming it, using
// the replayable GetBody the http client sets for buffered bodies; it
// returns nil when the body is not replayable.
func PeekBody(r *http.Request) []byte {
	if r.GetBody == nil {
		return nil
	}
	rc, err := r.GetBody()
	if err != nil {
		return nil
	}
	defer func() { _ = rc.Close() }() // in-memory replay reader; close cannot lose data
	b, err := io.ReadAll(rc)
	if err != nil {
		return nil
	}
	return b
}

// RoundTrip implements http.RoundTripper.
func (in *Injector) RoundTrip(req *http.Request) (*http.Response, error) {
	key := in.key(req)
	in.mu.Lock()
	if in.partitioned[req.URL.Host] {
		in.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrPartitioned, req.URL.Host)
	}
	in.counts[key]++
	n := in.counts[key]
	fire := in.plan.Fault != FaultNone && (in.plan.Attempt == 0 || n == in.plan.Attempt)
	if fire {
		in.fired++
	}
	in.mu.Unlock()
	if !fire {
		return in.base.RoundTrip(req)
	}

	switch in.plan.Fault {
	case FaultDrop:
		resp, err := in.base.RoundTrip(req)
		if err == nil {
			discard(resp)
		}
		return nil, fmt.Errorf("%w (bucket %q attempt %d)", ErrInjected, key, n)
	case FaultDelay:
		t := time.NewTimer(in.plan.Delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
		return in.base.RoundTrip(req)
	case FaultDuplicate:
		if req.GetBody != nil {
			first := req.Clone(req.Context())
			body, err := req.GetBody()
			if err == nil {
				first.Body = body
				if resp, err := in.base.RoundTrip(first); err == nil {
					discard(resp)
				}
				if rebody, err := req.GetBody(); err == nil {
					req.Body = rebody
				}
			}
		}
		return in.base.RoundTrip(req)
	case FaultTruncate:
		return in.mangleBody(req, key, n, func(b []byte, r uint64) []byte {
			if len(b) == 0 {
				return b
			}
			return b[:r%uint64(len(b))] // strict prefix, deterministic in (seed, bucket, attempt)
		})
	case FaultBitFlip:
		return in.mangleBody(req, key, n, func(b []byte, r uint64) []byte {
			if len(b) == 0 {
				return b
			}
			bit := r % uint64(len(b)*8)
			b[bit/8] ^= 1 << (bit % 8)
			return b
		})
	case FaultStatus:
		return in.syntheticStatus(req), nil
	}
	return in.base.RoundTrip(req)
}

// mangleBody forwards the request, then rewrites the response body through
// mutate with a value deterministic in (seed, bucket, attempt).
func (in *Injector) mangleBody(req *http.Request, key string, n int64, mutate func([]byte, uint64) []byte) (*http.Response, error) {
	resp, err := in.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	cerr := resp.Body.Close()
	if err != nil || cerr != nil {
		return nil, fmt.Errorf("netfault: reading body to mangle: %w", errors.Join(err, cerr))
	}
	body = mutate(body, in.mix(key, n))
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	resp.Header.Set("Content-Length", strconv.Itoa(len(body)))
	return resp, nil
}

// syntheticStatus builds the injected non-200 response.
func (in *Injector) syntheticStatus(req *http.Request) *http.Response {
	body := fmt.Sprintf(`{"error":"netfault: injected status %d"}`, in.plan.Status)
	h := http.Header{"Content-Type": []string{"application/json"}}
	if in.plan.RetryAfterSecs > 0 {
		h.Set("Retry-After", strconv.Itoa(in.plan.RetryAfterSecs))
	}
	return &http.Response{
		StatusCode:    in.plan.Status,
		Status:        fmt.Sprintf("%d %s", in.plan.Status, http.StatusText(in.plan.Status)),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          io.NopCloser(bytes.NewReader([]byte(body))),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// mix derives the deterministic per-injection randomness from the seed, the
// bucket key, and the attempt number (splitmix-style finalizer over an FNV
// hash of the key).
func (in *Injector) mix(key string, n int64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	x := in.seed ^ h ^ uint64(n)*0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// discard drains and closes a response the injector is about to lose, so the
// underlying connection returns to the pool.
func discard(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close() // response is being discarded; nothing to lose
}
