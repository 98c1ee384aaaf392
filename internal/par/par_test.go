package par

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/sample"
)

func TestSplitSeedDistinctStreams(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, ^uint64(0)} {
		seen := make(map[uint64]uint64)
		for s := uint64(0); s < 10000; s++ {
			v := SplitSeed(seed, s)
			if prev, dup := seen[v]; dup {
				t.Fatalf("seed %d: streams %d and %d alias to %d", seed, prev, s, v)
			}
			seen[v] = s
		}
	}
}

func TestSplitSeedStreamsDecorrelated(t *testing.T) {
	// Adjacent streams must not produce near-identical RNG output: the
	// first draws of streams 0..63 should all differ.
	seen := make(map[float64]bool)
	for s := uint64(0); s < 64; s++ {
		v := sample.NewRNG(SplitSeed(7, s)).Float64()
		if seen[v] {
			t.Fatalf("stream %d repeats an earlier first draw %v", s, v)
		}
		seen[v] = true
	}
}

func TestWorkersResolve(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d", got)
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const n = 257
		var hits [n]atomic.Int32
		ForEach(workers, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachEmptyAndSingle(t *testing.T) {
	ForEach(4, 0, func(int) { t.Fatal("fn called for n=0") })
	ran := false
	ForEach(4, 1, func(i int) { ran = i == 0 })
	if !ran {
		t.Error("n=1 not run")
	}
}

func TestForEachDeterministicSlots(t *testing.T) {
	// The canonical usage pattern: slot i derives from SplitSeed(seed, i)
	// only, so any worker count produces the same output.
	run := func(workers int) []float64 {
		out := make([]float64, 100)
		ForEach(workers, len(out), func(i int) {
			out[i] = sample.NewRNG(SplitSeed(99, uint64(i))).Float64()
		})
		return out
	}
	serial := run(1)
	for _, w := range []int{2, 4, 16} {
		got := run(w)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: slot %d = %v, serial %v", w, i, got[i], serial[i])
			}
		}
	}
}

// TestForEachPanicReachesCaller: a panic in fn reaches the caller at
// every worker count, with the value the serial loop raises: the
// lowest panicking index's. In parallel, index 9 panics only after
// index 40 has, so a ForEach that re-raised the first panic to arrive
// would report 40.
func TestForEachPanicReachesCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		late := make(chan struct{})
		got := func() (v any) {
			defer func() { v = recover() }()
			ForEach(workers, 64, func(i int) {
				switch i {
				case 9:
					if workers > 1 {
						<-late
					}
					panic("index 9")
				case 40:
					close(late)
					panic("index 40")
				}
			})
			return nil
		}()
		if got != "index 9" {
			t.Errorf("workers=%d: caller recovered %v, want index 9", workers, got)
		}
	}
}

// FuzzSeedSplit asserts the non-aliasing contract for arbitrary base
// seeds: two distinct streams of the same seed never map to the same
// derived seed (SplitSeed composes bijections, so this is structural,
// and the fuzzer guards the structure against regressions).
func FuzzSeedSplit(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(1))
	f.Add(uint64(1), uint64(100), uint64(3))
	f.Add(^uint64(0), uint64(0), ^uint64(0))
	f.Add(uint64(0x9e3779b97f4a7c15), uint64(2), uint64(7))
	f.Fuzz(func(t *testing.T, seed, a, b uint64) {
		if a == b {
			return
		}
		if SplitSeed(seed, a) == SplitSeed(seed, b) {
			t.Fatalf("seed %d: streams %d and %d alias", seed, a, b)
		}
	})
}
