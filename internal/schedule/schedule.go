package schedule

import (
	"sync"
	"time"
)

// Class is a slot-priority class.
type Class int

const (
	// Bulk is the default class: background work that only cares
	// about throughput.
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
// ready, so a woken waiter never races a new Acquire for its slot.
type waiter struct {
	ready chan struct{}
	since time.Time
}

// Pool is a counting semaphore over a bounded resource, with
// per-class priority queues.
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

// InUse returns the number of slots currently held: 0 once every
// Acquire has been released.
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
// (out-of-range classes degrade to Bulk). A free slot is granted
// immediately; otherwise the caller queues FIFO within its class and
// releases hand slots to the highest class first. Every Acquire must
// be paired with exactly one Release.
func (p *Pool) Acquire(class Class) {
	if class < Bulk || class >= numClasses {
		class = Bulk
	}
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

// Release returns a slot taken with Acquire: the highest-priority
// waiter (FIFO within its class) inherits it directly, so a new
// Acquire can never steal a slot a queued caller was promised, and a
// Latency hand-off past queued Bulk work counts as one preemption.
func (p *Pool) Release() {
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
