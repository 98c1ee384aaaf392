package schedule

import (
	"sync"
	"testing"
	"time"
)

// acquireOrder drives a 1-slot pool through a fixed contention
// pattern: the holder pins the slot while n waiters of the given
// classes queue in order, then the slot is released repeatedly and the
// completion order of the waiters is recorded.
func acquireOrder(t *testing.T, classes []Class) []int {
	t.Helper()
	p := NewPool(1)
	p.Acquire(Bulk) // pin the only slot

	order := make([]int, 0, len(classes))
	var mu sync.Mutex
	queued := make(chan struct{}, len(classes))
	var wg sync.WaitGroup
	for i, c := range classes {
		wg.Add(1)
		go func(i int, c Class) {
			defer wg.Done()
			queued <- struct{}{}
			p.Acquire(c)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			p.Release()
		}(i, c)
		<-queued
		// The waiter signals before Acquire; poll until it is actually
		// queued so arrival order is deterministic.
		deadline := time.Now().Add(2 * time.Second)
		for {
			p.mu.Lock()
			n := 0
			for _, q := range p.queues {
				n += len(q)
			}
			p.mu.Unlock()
			if n > i {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("waiter %d never queued", i)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	p.Release() // hand the pinned slot down the queues
	wg.Wait()
	if got := p.InUse(); got != 0 {
		t.Fatalf("InUse = %d after every acquire released", got)
	}
	return order
}

// TestLatencyOvertakesQueuedBulk: with bulk waiters queued first, a
// later latency acquire is served before all of them, and the pool
// counts one preemption per queue jump.
func TestLatencyOvertakesQueuedBulk(t *testing.T) {
	order := acquireOrder(t, []Class{Bulk, Bulk, Latency, Bulk, Latency})
	want := []int{2, 4, 0, 1, 3} // both latency waiters first, then bulk FIFO
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order %v, want %v", order, want)
		}
	}
}

// TestPreemptionCounter: every latency hand-off past queued bulk work
// increments Stats().Preemptions exactly once.
func TestPreemptionCounter(t *testing.T) {
	p := NewPool(1)
	p.Acquire(Bulk)
	var wg sync.WaitGroup
	ready := make(chan struct{}, 3)
	enqueue := func(c Class) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ready <- struct{}{}
			p.Acquire(c)
			p.Release()
		}()
		<-ready
		waitQueued(t, p, c)
	}
	enqueue(Bulk)
	enqueue(Latency)
	enqueue(Latency)
	p.Release()
	wg.Wait()

	st := p.Stats()
	if st.Preemptions != 2 {
		t.Fatalf("Preemptions = %d, want 2 (two latency jumps over one queued bulk)", st.Preemptions)
	}
	if st.PerClass[Latency].Acquires != 2 || st.PerClass[Latency].Waited != 2 {
		t.Fatalf("latency class stats %+v", st.PerClass[Latency])
	}
	if st.PerClass[Bulk].Acquires != 2 { // pin + queued bulk
		t.Fatalf("bulk acquires = %d, want 2", st.PerClass[Bulk].Acquires)
	}
}

// waitQueued blocks until at least one waiter of class c is queued.
func waitQueued(t *testing.T, p *Pool, c Class) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		p.mu.Lock()
		n := len(p.queues[c])
		p.mu.Unlock()
		if n > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %v waiter ever queued", c)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestReentryDeterministicWithinClass: waiters of one class are served
// strictly FIFO however often they re-enter — a pod evicted and
// re-queued (Acquire → Release → Acquire) never jumps ahead of a
// waiter that arrived before its re-entry.
func TestReentryDeterministicWithinClass(t *testing.T) {
	for round := 0; round < 20; round++ {
		order := acquireOrder(t, []Class{Bulk, Bulk, Bulk, Bulk})
		for i, got := range order {
			if got != i {
				t.Fatalf("round %d: bulk FIFO violated: %v", round, order)
			}
		}
	}
}

// TestPoolInUseNeverLeaks hammers a small pool from both classes with
// Acquire/Release traffic (run under -race in CI); afterwards InUse
// must be exactly zero and the class accounting must add up.
func TestPoolInUseNeverLeaks(t *testing.T) {
	p := NewPool(3)
	const goroutines = 16
	const iters = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			class := Bulk
			if g%3 == 0 {
				class = Latency
			}
			for i := 0; i < iters; i++ {
				p.Acquire(class)
				p.Release()
			}
		}(g)
	}
	wg.Wait()
	if got := p.InUse(); got != 0 {
		t.Fatalf("InUse = %d after all traffic drained, want 0", got)
	}
	st := p.Stats()
	if total := st.PerClass[Bulk].Acquires + st.PerClass[Latency].Acquires; total != goroutines*iters {
		t.Fatalf("acquire accounting %d, want %d", total, goroutines*iters)
	}
}

// TestLatencyWaitDropsUnderPriority is the satellite's demonstration:
// on a saturated 1-slot pool, a latency-class session's slot waits are
// strictly shorter than the same session's in the bulk class, because
// every hand-off lets it jump the bulk backlog.
func TestLatencyWaitDropsUnderPriority(t *testing.T) {
	// run saturates a 1-slot pool with 4 bulk holders that each pin
	// the slot for 2 ms, while one probe session in the given class
	// acquires 10 times. Returns the probe's mean wall-clock wait.
	run := func(probeClass Class) (mean float64, stats Stats) {
		p := NewPool(1)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					p.Acquire(Bulk)
					time.Sleep(2 * time.Millisecond)
					p.Release()
				}
			}()
		}
		const probes = 10
		var waited time.Duration
		for i := 0; i < probes; i++ {
			start := time.Now()
			p.Acquire(probeClass)
			waited += time.Since(start)
			time.Sleep(time.Millisecond)
			p.Release()
		}
		stats = p.Stats()
		close(stop)
		wg.Wait()
		return waited.Seconds() / probes, stats
	}
	bulkWait, _ := run(Bulk)
	latWait, latStats := run(Latency)
	// The bulk probe queues FIFO behind up to 4 competing holders; the
	// latency probe waits out at most the current holder. Demand a 2x
	// gap so scheduler jitter cannot flake the assertion.
	if latWait*2 >= bulkWait {
		t.Fatalf("latency wait %.4fs not clearly below bulk wait %.4fs", latWait, bulkWait)
	}
	// The pool's own accounting must agree with the wall clock: every
	// queued latency acquire contributed wait time.
	ls := latStats.PerClass[Latency]
	if ls.Acquires != 10 {
		t.Fatalf("latency probe charged %d acquires, want 10", ls.Acquires)
	}
	if ls.Waited > 0 && ls.WaitSeconds <= 0 {
		t.Fatalf("latency class waited %d times but accounted %.4fs", ls.Waited, ls.WaitSeconds)
	}
}
