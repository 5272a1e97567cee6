package resilience

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Gate is a bounded-concurrency admission controller: at most maxInFlight
// requests hold a slot at once, at most maxQueue more may wait for a slot,
// and a waiter is shed after maxWait. Everything beyond that is rejected
// immediately with ErrShed — the server degrades by refusing work it
// cannot finish in time instead of queueing unboundedly.
type Gate struct {
	slots   chan struct{} // tokens held by in-flight requests
	queue   chan struct{} // tokens held by waiters
	maxWait time.Duration

	// Lifetime outcome counters, exported via Stats for /stats and the
	// Prometheus registry.
	admitted      atomic.Uint64 // successful Acquires
	shed          atomic.Uint64 // rejected immediately: wait queue full
	queueTimeouts atomic.Uint64 // rejected after waiting maxWait in the queue
	cancelled     atomic.Uint64 // caller's context terminated while queued
}

// NewGate returns a gate admitting maxInFlight concurrent requests with a
// wait queue of maxQueue and a maximum queue time of maxWait. Zero or
// negative values select the defaults: 2×GOMAXPROCS in flight, a queue of
// the same size, and a 1s maximum wait.
func NewGate(maxInFlight, maxQueue int, maxWait time.Duration) *Gate {
	if maxInFlight <= 0 {
		maxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if maxQueue <= 0 {
		maxQueue = maxInFlight
	}
	if maxWait <= 0 {
		maxWait = time.Second
	}
	return &Gate{
		slots:   make(chan struct{}, maxInFlight),
		queue:   make(chan struct{}, maxQueue),
		maxWait: maxWait,
	}
}

// Admit admits the request or rejects it. On success the caller holds a
// slot and must give it back with exactly one Release when the request
// finishes. It fails with ErrShed when the queue is full or the wait
// exceeds the gate's maximum, and with ctx.Err() when the caller's
// context terminates while queued — so a deadline budget spent waiting in
// the queue is charged to the request.
func (g *Gate) Admit(ctx context.Context) error {
	// Fast path: a slot is free.
	select {
	case g.slots <- struct{}{}:
		g.admitted.Add(1)
		return nil
	default:
	}
	// Slow path: take a queue token or shed immediately.
	select {
	case g.queue <- struct{}{}:
	default:
		g.shed.Add(1)
		return ErrShed
	}
	defer func() { <-g.queue }()
	timer := time.NewTimer(g.maxWait)
	defer timer.Stop()
	select {
	case g.slots <- struct{}{}:
		g.admitted.Add(1)
		return nil
	case <-timer.C:
		g.queueTimeouts.Add(1)
		return ErrShed
	case <-ctx.Done():
		g.cancelled.Add(1)
		return ctx.Err()
	}
}

// Release gives back the slot of one successful Admit. It does not guard
// against a second call: a caller that may reach its release twice keeps
// its own flag (or uses Acquire).
func (g *Gate) Release() { <-g.slots }

// Acquire is Admit returning its Release as a function that is safe to
// call more than once; only the first call frees the slot. It costs that
// closure, so the request paths use Admit and Release.
func (g *Gate) Acquire(ctx context.Context) (release func(), err error) {
	if err := g.Admit(ctx); err != nil {
		return nil, err
	}
	var once sync.Once
	return func() { once.Do(g.Release) }, nil
}

// Do admits the request, runs fn while holding the admission slot, and
// releases the slot when fn returns (or panics). It is the convenience
// form batch-style callers use to run many units of work through one
// gate: admission failures are returned without running fn, so every
// element of a batch is individually subject to the same load-shedding
// policy as interactive requests.
func (g *Gate) Do(ctx context.Context, fn func() error) error {
	if err := g.Admit(ctx); err != nil {
		return err
	}
	defer g.Release()
	return fn()
}

// GateStats is a snapshot of a gate's lifetime outcome counters and
// current occupancy. The counters are read individually, so a snapshot
// taken under concurrent traffic is consistent per field, not across
// fields.
type GateStats struct {
	// Admitted counts successful Acquires (fast path and queued).
	Admitted uint64
	// Shed counts requests rejected immediately because the wait queue
	// was full.
	Shed uint64
	// QueueTimeouts counts requests rejected after waiting the gate's
	// maximum queue time (also reported as ErrShed to the caller).
	QueueTimeouts uint64
	// Cancelled counts requests whose context terminated while queued.
	Cancelled uint64
	// InFlight, Queued, Capacity and QueueCapacity describe the current
	// occupancy and the configured bounds.
	InFlight, Queued, Capacity, QueueCapacity int
}

// Stats returns a snapshot of the gate's counters and occupancy.
func (g *Gate) Stats() GateStats {
	return GateStats{
		Admitted:      g.admitted.Load(),
		Shed:          g.shed.Load(),
		QueueTimeouts: g.queueTimeouts.Load(),
		Cancelled:     g.cancelled.Load(),
		InFlight:      g.InFlight(),
		Queued:        g.Queued(),
		Capacity:      g.Capacity(),
		QueueCapacity: cap(g.queue),
	}
}

// InFlight returns the number of requests currently holding a slot.
func (g *Gate) InFlight() int { return len(g.slots) }

// Queued returns the number of requests currently waiting for a slot.
func (g *Gate) Queued() int { return len(g.queue) }

// Capacity returns the maximum number of concurrent in-flight requests.
func (g *Gate) Capacity() int { return cap(g.slots) }
