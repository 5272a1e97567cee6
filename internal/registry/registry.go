// Package registry holds the multi-tenant corpus registry: a named set
// of tenants, each owning one engine (corpus + caches), one admission
// gate, one SLO tracker and its own durability state (per-corpus WAL,
// recovery progress, degradation latch). The server routes corpus-scoped
// requests (/v1/corpora/{name}/...) to the tenant of that name and the
// un-scoped /v1 aliases to the tenant named "default".
//
// Isolation is structural: tenants share no engine, no score-set LRU,
// no gate and no log, so one tenant's cache keys, admission pressure or
// WAL failures cannot leak into another's. The registry itself is only
// a concurrent name → tenant map.
package registry

import (
	"errors"
	"fmt"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/resilience"
	"repro/internal/slo"
	"repro/internal/tracestore"
	"repro/internal/wal"
)

// DefaultName is the tenant the un-scoped /v1 routes address.
const DefaultName = "default"

// ErrExists marks an Add rejected because the name is taken; servers
// map it to 409 Conflict.
var ErrExists = errors.New("corpus already exists")

// nameRE is the corpus-name grammar: path-safe (names become WAL
// directory names and URL path segments), lowercase, no leading
// punctuation, at most 64 characters.
var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9_-]{0,63}$`)

// ValidName reports whether name is an acceptable corpus name.
func ValidName(name string) bool { return nameRE.MatchString(name) }

// Tenant is one named corpus with its full serving stack: the engine,
// its admission gate, its SLO tracker, and its durability state. The
// exported fields are set at construction and immutable afterwards; the
// durability state is atomic and safe for concurrent use.
type Tenant struct {
	// Name is the registry key and the {corpus} path segment.
	Name string
	// Eng owns the corpus, its epoch snapshots and its score-set LRU.
	Eng *engine.Engine
	// Gate is the tenant's admission gate: per-tenant accounting, so one
	// tenant's load sheds against its own bound.
	Gate *resilience.Gate
	// SLO is the tenant's tracker; nil when SLO tracking is disabled
	// (the tracker is nil-safe).
	SLO *slo.Tracker
	// Traces is the tenant's retained-trace ring; nil when tracing is
	// disabled (the store is nil-safe). Per-tenant like the gate and the
	// tracker: a noisy corpus evicts only its own traces.
	Traces *tracestore.Store
	// WALDir is the tenant's log directory; "" when not durable.
	WALDir string

	// Durability state: ready gates mutations while WAL replay runs;
	// walLog enables compaction and metrics; walDegraded latches the
	// reads-only mode.
	ready           atomic.Bool
	walLog          atomic.Pointer[wal.Log]
	walDegraded     atomic.Pointer[string]
	compacting      atomic.Bool
	replayedRecords atomic.Uint64
	recoveredEpoch  atomic.Uint64
	recoveryNanos   atomic.Int64
}

// NewTenant builds a ready tenant. gate must be non-nil; tracker may be
// nil (SLO tracking disabled).
func NewTenant(name string, eng *engine.Engine, gate *resilience.Gate, tracker *slo.Tracker) *Tenant {
	t := &Tenant{Name: name, Eng: eng, Gate: gate, SLO: tracker}
	t.ready.Store(true)
	return t
}

// Ready reports whether the tenant accepts mutations (recovery, if any,
// has completed).
func (t *Tenant) Ready() bool { return t.ready.Load() }

// BeginRecovery marks the tenant not ready: mutations are shed until
// FinishRecovery, reads keep serving the engine's current epoch.
func (t *Tenant) BeginRecovery() { t.ready.Store(false) }

// FinishRecovery records the recovery outcome and flips the tenant
// ready.
func (t *Tenant) FinishRecovery(replayed int, epoch uint64, dur time.Duration) {
	t.replayedRecords.Store(uint64(replayed))
	t.recoveredEpoch.Store(epoch)
	t.recoveryNanos.Store(int64(dur))
	t.ready.Store(true)
}

// RecoveryStats returns what the last recovery replayed: record count,
// re-established epoch and replay duration.
func (t *Tenant) RecoveryStats() (replayed int, epoch uint64, dur time.Duration) {
	return int(t.replayedRecords.Load()), t.recoveredEpoch.Load(), time.Duration(t.recoveryNanos.Load())
}

// AttachWAL hands the tenant's engine its open log, so every later
// mutation is appended before it is published, and keeps it for
// compaction and metrics. Recovery calls it once replay is done: a
// replayed batch is already in the log and must not be logged again.
func (t *Tenant) AttachWAL(l *wal.Log) {
	t.Eng.SetWAL(l)
	t.walLog.Store(l)
}

// WAL returns the attached log, nil when the tenant is not durable.
func (t *Tenant) WAL() *wal.Log { return t.walLog.Load() }

// WALStats snapshots the attached log's counters, or zeros without one.
func (t *Tenant) WALStats() wal.Stats {
	if l := t.walLog.Load(); l != nil {
		return l.Stats()
	}
	return wal.Stats{}
}

// Degrade latches the tenant into degraded durability: reads keep
// serving, every mutation is shed naming reason, and the tenant counts
// as ready (it is ready — just read-mostly).
func (t *Tenant) Degrade(err error) {
	msg := err.Error()
	t.walDegraded.Store(&msg)
	t.ready.Store(true)
}

// DegradedReason returns the degradation cause, or "" when healthy.
func (t *Tenant) DegradedReason() string {
	if r := t.walDegraded.Load(); r != nil {
		return *r
	}
	return ""
}

// WALState summarises the tenant's durability mode: "degraded",
// "recovering", "broken", "active" or "disabled".
func (t *Tenant) WALState() string {
	switch {
	case t.walDegraded.Load() != nil:
		return "degraded"
	case !t.ready.Load():
		return "recovering"
	case t.WALStats().Broken:
		return "broken"
	case t.walLog.Load() != nil:
		return "active"
	default:
		return "disabled"
	}
}

// TryCompact claims the tenant's single background-compaction slot;
// the caller must EndCompact when done. False when a compaction is
// already running.
func (t *Tenant) TryCompact() bool { return t.compacting.CompareAndSwap(false, true) }

// EndCompact releases the compaction slot.
func (t *Tenant) EndCompact() { t.compacting.Store(false) }

// Registry is a concurrent name → tenant map.
type Registry struct {
	mu      sync.RWMutex
	tenants map[string]*Tenant
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{tenants: make(map[string]*Tenant)}
}

// Add registers t under its name. Invalid names and duplicates fail.
func (r *Registry) Add(t *Tenant) error {
	if !ValidName(t.Name) {
		return fmt.Errorf("registry: invalid corpus name %q (want %s)", t.Name, nameRE)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.tenants[t.Name]; ok {
		return fmt.Errorf("registry: %q: %w", t.Name, ErrExists)
	}
	r.tenants[t.Name] = t
	return nil
}

// Get returns the tenant of that name.
func (r *Registry) Get(name string) (*Tenant, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tenants[name]
	return t, ok
}

// Remove unregisters and returns the tenant of that name. Requests
// in flight on the tenant finish undisturbed; new lookups miss.
func (r *Registry) Remove(name string) (*Tenant, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[name]
	if ok {
		delete(r.tenants, name)
	}
	return t, ok
}

// Len returns the number of registered tenants.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.tenants)
}

// Names returns the registered corpus names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.tenants))
	for name := range r.tenants {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// All returns the registered tenants, sorted by name.
func (r *Registry) All() []*Tenant {
	r.mu.RLock()
	out := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, t)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
