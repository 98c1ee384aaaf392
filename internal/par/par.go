// Package par provides the deterministic-parallelism primitives the
// tuner's hot paths share: a seed splitter that derives independent,
// never-aliasing RNG streams for parallel work items, and a bounded
// worker pool for index-addressed fan-out.
//
// The determinism contract every user of this package upholds is:
// running a computation with Workers=1 and Workers=N must produce
// bit-identical results under the same seed. The pattern that
// guarantees it is (1) derive each work item's randomness from
// SplitSeed(seed, item) rather than from a shared stream, (2) have
// item i write only slot i of the output, and (3) reduce the outputs
// in index order so floating-point summation and argmin tie-breaking
// match the serial path exactly.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// SplitSeed derives the RNG seed for one work item (a tree, a
// permutation repeat, a multistart run) from a base seed. It applies
// the SplitMix64 finalizer to seed + (stream+1)·φ, a composition of
// bijections on uint64, so for a fixed base seed distinct streams can
// never alias — the property FuzzSeedSplit checks. The +1 keeps
// stream 0 from collapsing onto the raw seed.
func SplitSeed(seed, stream uint64) uint64 {
	z := seed + (stream+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Workers resolves a worker-count option: values <= 0 select
// runtime.GOMAXPROCS, anything else is returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs fn(i) for every i in [0, n) on up to `workers`
// goroutines (<= 0 selects GOMAXPROCS). Work is handed out by an
// atomic counter, so items run in roughly ascending order but on
// arbitrary goroutines; callers keep determinism by making fn(i)
// depend only on i and write only slot i of any shared output.
// workers <= 1 (or n <= 1) degenerates to a plain serial loop with no
// goroutine or synchronization overhead.
//
// A panic in fn reaches the caller for any worker count, as the panic
// the serial loop would raise: the workers stop taking new items, wait
// for the running ones, and ForEach re-panics with the value of the
// lowest panicking index. Every index below a handed-out one was
// handed out before it, so that index is the serial loop's first.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	first, value := n, any(nil) // the lowest panicking index and its value
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := 0
			defer func() {
				if v := recover(); v != nil {
					mu.Lock()
					if i < first {
						first, value = i, v
					}
					mu.Unlock()
					next.Store(int64(n))
				}
			}()
			for {
				i = int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if first < n {
		panic(value)
	}
}
