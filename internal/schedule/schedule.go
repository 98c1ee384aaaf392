// Package schedule multiplexes concurrent tuning sessions over a
// shared, bounded pool of cluster evaluation slots — the campaign
// scheduler. A real deployment tunes several workloads at once
// against one cluster that can only run a few configurations side by
// side; the scheduler lets N sessions make progress while never
// exceeding the cluster's evaluation capacity.
//
// Slots are handed out by priority class: latency-sensitive sessions
// (an analyst waiting on an interactive ask/tell session) overtake
// queued bulk re-tuning work, and within a class waiters are served
// strictly FIFO. A queue jump is counted as a preemption and the pool
// tracks per-class wait time, so a deployment can see exactly what
// the priority split buys.
//
// Determinism: each session owns a private objective, and the pool
// only delays evaluations — it never reorders anything a session
// observes and never changes what a batch computes (worker counts
// affect scheduling, not results, per the evaluator's deterministic
// parallelism). Campaign results are therefore bit-identical for any
// pool size, including 1; the tests assert it.
package schedule

import (
	"context"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/conf"
	"repro/internal/tuners"
)

// Class is a slot-priority class.
type Class int

const (
	// Bulk is the default class: background re-tuning campaigns that
	// only care about throughput.
	Bulk Class = iota
	// Latency marks latency-sensitive sessions; their acquires are
	// served before any queued Bulk waiter.
	Latency
	numClasses
)

// String names the class for metrics and logs.
func (c Class) String() string {
	switch c {
	case Bulk:
		return "bulk"
	case Latency:
		return "latency"
	}
	return "unknown"
}

// ClassStats aggregates one class's slot-acquisition history.
type ClassStats struct {
	// Acquires counts completed slot acquisitions.
	Acquires int64
	// Waited counts acquisitions that had to queue.
	Waited int64
	// WaitSeconds is the cumulative time the class's acquisitions
	// spent queued.
	WaitSeconds float64
}

// Stats is a snapshot of the pool's priority accounting.
type Stats struct {
	// Preemptions counts queue jumps: a released slot handed to a
	// Latency waiter while Bulk waiters queued ahead of it in arrival
	// order.
	Preemptions int64
	// PerClass indexes ClassStats by Class.
	PerClass [numClasses]ClassStats
}

// waiter is one queued acquire; the slot is transferred by closing
// ready, so a woken waiter never races tryAcquire for its slot.
type waiter struct {
	ready chan struct{}
	since time.Time
}

// Pool is the cluster's evaluation capacity: a counting semaphore
// over concurrently running configurations, with per-class priority
// queues. Wrap an objective with Wrap to charge its evaluations
// against the pool.
type Pool struct {
	mu       sync.Mutex
	capacity int
	inUse    int
	queues   [numClasses][]*waiter
	stats    Stats
}

// NewPool builds a pool with the given capacity (minimum 1).
func NewPool(capacity int) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	return &Pool{capacity: capacity}
}

// Capacity returns the pool's slot count.
func (p *Pool) Capacity() int { return p.capacity }

// InUse returns the number of slots currently held. It is the pool's
// teardown invariant: after every session of a campaign has returned
// — including ones that panicked and were contained — InUse must be 0,
// or some evaluation leaked a slot. RunCampaign asserts this.
func (p *Pool) InUse() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inUse
}

// Stats returns a snapshot of the pool's preemption and wait
// accounting.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Acquire blocks until the caller holds one slot in the given class
// (out-of-range classes degrade to Bulk). It is the manual form of
// Wrap for callers gating non-objective work — robotuned charges
// each session's propose computation against a shared pool this way.
// Every Acquire must be paired with exactly one Release.
func (p *Pool) Acquire(class Class) {
	if class < Bulk || class >= numClasses {
		class = Bulk
	}
	p.acquire(class)
}

// Release returns a slot taken with Acquire.
func (p *Pool) Release() { p.release() }

// acquire blocks until the caller holds one slot. A free slot is
// granted immediately; otherwise the caller queues FIFO within its
// class and releases hand slots to the highest class first.
func (p *Pool) acquire(class Class) {
	p.mu.Lock()
	if p.inUse < p.capacity && p.idle(class) {
		p.inUse++
		p.stats.PerClass[class].Acquires++
		p.mu.Unlock()
		return
	}
	w := &waiter{ready: make(chan struct{}), since: time.Now()}
	p.queues[class] = append(p.queues[class], w)
	p.mu.Unlock()

	<-w.ready

	p.mu.Lock()
	st := &p.stats.PerClass[class]
	st.Acquires++
	st.Waited++
	st.WaitSeconds += time.Since(w.since).Seconds()
	p.mu.Unlock()
}

// idle reports whether an arriving acquire of the class may take a
// free slot directly: no waiter of an equal or higher class may be
// queued, or FIFO-within-class (and priority across classes) would be
// violated during the instant between a release and its hand-off.
func (p *Pool) idle(class Class) bool {
	for c := class; c < numClasses; c++ {
		if len(p.queues[c]) > 0 {
			return false
		}
	}
	return true
}

// release returns one slot: the highest-priority waiter (FIFO within
// its class) inherits it directly — so tryAcquire can never steal a
// slot a queued session was promised — and a Latency hand-off past
// queued Bulk work counts as one preemption.
func (p *Pool) release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := numClasses - 1; c >= 0; c-- {
		q := p.queues[c]
		if len(q) == 0 {
			continue
		}
		w := q[0]
		copy(q, q[1:])
		q[len(q)-1] = nil
		p.queues[c] = q[:len(q)-1]
		if c == Latency && len(p.queues[Bulk]) > 0 {
			p.stats.Preemptions++
		}
		close(w.ready) // slot transfers; inUse unchanged
		return
	}
	p.inUse--
}

// tryAcquire opportunistically takes a free slot without queueing; it
// refuses whenever any waiter is queued (in particular while a
// Latency session waits), so batch extras can never starve queued
// work.
func (p *Pool) tryAcquire() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.inUse >= p.capacity || !p.idle(Bulk) {
		return false
	}
	p.inUse++
	return true
}

// Wrap charges every evaluation of obj against the pool in the Bulk
// class: sequential evaluations hold one slot, batch evaluations hold
// one slot plus as many extra slots as are free at dispatch (capped
// by the requested worker count), so a batch degrades gracefully
// under contention instead of deadlocking the campaign. Counter reads
// (Evals, SearchCost) pass through ungated.
//
// The wrapper preserves the optional capabilities the session and
// ROBOTune probe for — fidelity support, stream restore and workload
// identity — forwarding each to the inner objective when it supports
// it and degrading to the capability-absent behavior when it does
// not. Batch evaluation is only claimed when the inner objective
// claims it, because its presence changes which algorithm path a
// tuner picks.
func (p *Pool) Wrap(obj tuners.Objective) tuners.Objective {
	g := gated{pool: p, inner: obj}
	if _, ok := obj.(backend.BatchEvaluator); ok {
		return &gatedBatch{g}
	}
	return &g
}

type gated struct {
	pool  *Pool
	inner tuners.Objective
}

// EvaluateSpec runs one spec-driven evaluation holding one slot.
func (g *gated) EvaluateSpec(c conf.Config, spec backend.EvalSpec) backend.EvalRecord {
	g.pool.acquire(Bulk)
	defer g.pool.release()
	return g.inner.EvaluateSpec(c, spec)
}

func (g *gated) SearchCost() float64 { return g.inner.SearchCost() }
func (g *gated) Evals() int          { return g.inner.Evals() }

// RestoreStream forwards the resume capability when present.
func (g *gated) RestoreStream(evals int, cost float64) {
	if sr, ok := g.inner.(backend.StreamRestorer); ok {
		sr.RestoreStream(evals, cost)
	}
}

// SupportsFidelity forwards the proxy-run capability, so
// multi-fidelity sessions behave identically under pooling.
func (g *gated) SupportsFidelity() bool {
	if fs, ok := g.inner.(backend.FidelitySupporter); ok {
		return fs.SupportsFidelity()
	}
	return false
}

// WorkloadName and DatasetName forward the memoization identity; an
// anonymous inner objective reads as the empty workload, which every
// consumer treats as "no identity".
func (g *gated) WorkloadName() string {
	if id, ok := g.inner.(backend.Identifiable); ok {
		return id.WorkloadName()
	}
	return ""
}

func (g *gated) DatasetName() string {
	if id, ok := g.inner.(backend.Identifiable); ok {
		return id.DatasetName()
	}
	return ""
}

type gatedBatch struct {
	gated
}

// EvaluateSpecCtx runs a spec batch with one guaranteed slot plus
// whatever extra capacity is free right now (denied while anything
// queues, so extras never starve waiting sessions). The inner batch
// is worker-count invariant, so the opportunistic grant affects only
// wall-clock, never results.
func (g *gatedBatch) EvaluateSpecCtx(ctx context.Context, cfgs []conf.Config, spec backend.EvalSpec) []backend.EvalRecord {
	if recs, cancelled := skipAllCancelled(ctx, cfgs); cancelled {
		return recs
	}
	want := spec.Workers
	if want > len(cfgs) {
		want = len(cfgs)
	}
	if want < 1 {
		want = 1
	}
	g.pool.acquire(Bulk)
	granted := 1
	for granted < want && g.pool.tryAcquire() {
		granted++
	}
	defer func() {
		for i := 0; i < granted; i++ {
			g.pool.release()
		}
	}()
	spec.Workers = granted
	return g.inner.(backend.BatchEvaluator).EvaluateSpecCtx(ctx, cfgs, spec)
}

// skipAllCancelled is the batch gate's cancellation re-check: a batch
// dispatched after its campaign was cancelled must not burn pool slots
// (possibly blocking on acquire) computing results every consumer
// discards. The all-Skipped response is bit-identical to what the
// inner evaluators return for a pre-cancelled context, so the fix
// changes scheduling only, never results.
func skipAllCancelled(ctx context.Context, cfgs []conf.Config) ([]backend.EvalRecord, bool) {
	if ctx == nil || ctx.Err() == nil {
		return nil, false
	}
	recs := make([]backend.EvalRecord, len(cfgs))
	for i := range recs {
		recs[i] = backend.EvalRecord{Config: cfgs[i], Skipped: true}
	}
	return recs, true
}

// Scheduler runs tuning campaigns: N tasks multiplexed over a shared
// evaluation pool, at most Sessions of them in flight at once.
type Scheduler struct {
	pool     *Pool
	sessions int
}

// NewScheduler builds a scheduler with the given evaluation-pool
// capacity and concurrent-task bound (both minimum 1, so <= 1 is
// serial).
func NewScheduler(evaluators, sessions int) *Scheduler {
	if sessions < 1 {
		sessions = 1
	}
	return &Scheduler{pool: NewPool(evaluators), sessions: sessions}
}

// Pool returns the shared evaluation pool.
func (s *Scheduler) Pool() *Pool { return s.pool }

// runTasks invokes task(i) for i in [0, n) on concurrent goroutines,
// at most the session limit at once, and returns when all have
// finished.
func (s *Scheduler) runTasks(n int, task func(i int)) {
	gate := make(chan struct{}, s.sessions)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		gate <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-gate }()
			task(i)
		}(i)
	}
	wg.Wait()
}
