// Package exec is the execution seam of the mining pipeline: a bounded
// worker pool that shards per-symbol and per-period-band work and is the
// single place cooperative cancellation is polled. The mining stages in
// internal/core and the batched FFT driver in internal/conv submit their
// work here instead of spinning up ad-hoc goroutine pools or sprinkling
// every-N-iterations cancellation checks of their own, so in-memory and
// out-of-core mines all cancel and shard the same way.
package exec

import (
	"runtime"
	"sync"
	"sync/atomic"

	"periodica/internal/obs"
)

// DefaultPollEvery is the number of steps between cancellation polls.
// Cancellation sources (ctx.Err) take a mutex, so polling them on every step
// of a hot loop would dominate; every few hundred steps keeps the latency of
// a cancelled mine far below human-visible while costing nothing
// measurable.
const DefaultPollEvery = 256

// Config configures a Scheduler.
type Config struct {
	// Workers bounds the goroutines a Run may use when the caller does not
	// pick its own width; 0 or negative means GOMAXPROCS.
	Workers int
	// Cancel, when non-nil, is the cancellation source (for context-aware
	// entry points it is ctx.Err). Its first non-nil return is latched and
	// aborts every subsequent Poll, Tick, and Run.
	Cancel func() error
	// Metrics, when non-nil, receives the queue-depth gauge updates.
	Metrics *obs.ExecMetrics
}

// Scheduler coordinates the stages of one run: it owns the worker budget,
// the cancellation source, and the step count that paces polling. A
// Scheduler is safe for concurrent use; the first error (cancellation or a
// failed item) is latched and every later Poll/Tick/Run observes it.
type Scheduler struct {
	workers int
	cancel  func() error
	met     *obs.ExecMetrics
	steps   atomic.Int64
	err     atomic.Pointer[error]
}

// New returns a scheduler for one run.
func New(cfg Config) *Scheduler {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Scheduler{workers: workers, cancel: cfg.Cancel, met: cfg.Metrics}
}

// Workers returns the scheduler's default worker budget.
func (s *Scheduler) Workers() int { return s.workers }

// Err returns the latched error, if any.
func (s *Scheduler) Err() error {
	if p := s.err.Load(); p != nil {
		return *p
	}
	return nil
}

// fail latches err; the first latched error wins.
func (s *Scheduler) fail(err error) {
	s.err.CompareAndSwap(nil, &err)
}

// Poll checks the cancellation source immediately (and the latch), latching
// and returning any error. Stages call it at coarse-grained boundaries —
// between pipeline stages, between occurrence-set builds — where the cost of
// the poll is negligible next to the work it gates.
func (s *Scheduler) Poll() error {
	if err := s.Err(); err != nil {
		return err
	}
	if s.cancel != nil {
		if err := s.cancel(); err != nil {
			s.fail(err)
			return err
		}
	}
	return nil
}

// Tick advances the step count by n, polling the cancellation source
// whenever the count crosses a DefaultPollEvery boundary.
// Hot loops call it with their natural batch size (symbols per period, DFS
// steps per chunk) instead of hand-rolling every-N checks.
func (s *Scheduler) Tick(n int64) error {
	if n <= 0 {
		return s.Err()
	}
	t := s.steps.Add(n)
	if (t-n)/DefaultPollEvery != t/DefaultPollEvery {
		return s.Poll()
	}
	return s.Err()
}

// Run shards items 0..n-1 over a worker pool. worker is invoked once per
// pool goroutine (so it may allocate per-worker scratch) and returns the
// function applied to each item; items are claimed from a shared queue, so
// uneven per-item cost balances automatically. workers ≤ 0 uses the
// scheduler's budget; the pool never exceeds n.
//
// The cancellation source is polled before every item. On cancellation or
// an item error the first error is latched and returned; remaining items
// are drained unprocessed, and callers must discard partial output. With an
// effective width of one the items run inline on the calling goroutine in
// ascending order — the serial entry points shard through the very same
// code path as the parallel ones.
func (s *Scheduler) Run(n, workers int, worker func(w int) func(i int) error) error {
	if n <= 0 {
		return s.Err()
	}
	if workers <= 0 {
		workers = s.workers
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn := worker(0)
		for i := 0; i < n; i++ {
			if err := s.Poll(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				s.fail(err)
				return s.Err()
			}
		}
		return s.Err()
	}
	queue := make(chan int, n)
	if s.met != nil {
		s.met.QueueDepth().Add(int64(n))
	}
	//opvet:ignore ctxpoll sends are bounded by the queue's capacity n and never block
	for i := 0; i < n; i++ {
		queue <- i
	}
	close(queue)
	var wg sync.WaitGroup
	//opvet:ignore ctxpoll spawn loop bounded by the worker count; each worker polls per item
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn := worker(w)
			for i := range queue {
				if s.met != nil {
					s.met.QueueDepth().Dec()
				}
				if s.Poll() != nil {
					continue // drain the queue without processing
				}
				if err := fn(i); err != nil {
					s.fail(err)
				}
			}
		}(w)
	}
	wg.Wait()
	return s.Err()
}

// Gate is a concurrency-admission gate over the same worker-budget notion
// the scheduler uses: n slots, try-acquire semantics. The serving layer
// delegates its admission control here so the request-level limit and the
// engine-level worker budget live in one package.
type Gate struct {
	slots chan struct{}
}

// NewGate returns a gate with n slots (minimum one).
func NewGate(n int) *Gate {
	if n < 1 {
		n = 1
	}
	return &Gate{slots: make(chan struct{}, n)}
}

// TryAcquire takes a slot if one is free, without blocking.
func (g *Gate) TryAcquire() bool {
	select {
	case g.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a previously acquired slot.
func (g *Gate) Release() { <-g.slots }

// Capacity returns the number of slots.
func (g *Gate) Capacity() int { return cap(g.slots) }

// InUse returns the number of currently held slots.
func (g *Gate) InUse() int { return len(g.slots) }
