package bo

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/sample"
)

// TestTellRejectsNonFinite: NaN/Inf observations must be refused at
// the engine boundary, never reach the GP, and never panic.
func TestTellRejectsNonFinite(t *testing.T) {
	e := New(2, Config{Seed: 3})
	seedEngine(e, 6, 3)
	n := e.N()
	for _, y := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := e.Tell([]float64{0.5, 0.5}, y); err == nil {
			t.Errorf("Tell accepted y = %v", y)
		}
		if err := e.TellCensored([]float64{0.5, 0.5}, y); err == nil {
			t.Errorf("TellCensored accepted y = %v", y)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		if err := e.Tell([]float64{v, 0.5}, 1); err == nil {
			t.Errorf("Tell accepted x with %v", v)
		}
	}
	if e.N() != n {
		t.Fatalf("rejected observations changed N: %d -> %d", n, e.N())
	}
	// The engine must still be fully functional afterwards.
	if _, err := e.Suggest(); err != nil {
		t.Fatalf("Suggest after rejected tells: %v", err)
	}
}

// TestJitterRetriesMonotone: the counter only accumulates, and a
// healthy fit sequence reports zero.
func TestJitterRetriesMonotone(t *testing.T) {
	e := New(2, Config{Seed: 7})
	seedEngine(e, 8, 7)
	if _, err := e.Suggest(); err != nil {
		t.Fatal(err)
	}
	healthy := e.JitterRetries()
	if healthy < 0 {
		t.Fatalf("negative retry count %d", healthy)
	}
	// Duplicate points force a singular kernel matrix: the escalating
	// jitter ladder must rescue the factorization (no error, no panic)
	// and account its retries.
	dup := New(2, Config{Seed: 7})
	for i := 0; i < 10; i++ {
		if err := dup.Tell([]float64{0.5, 0.5}, 1.0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dup.Surrogate(); err != nil {
		t.Fatalf("surrogate on duplicate observations: %v", err)
	}
	first := dup.JitterRetries()
	if _, err := dup.Surrogate(); err != nil {
		t.Fatal(err)
	}
	if dup.JitterRetries() < first {
		t.Fatalf("retry counter decreased: %d -> %d", first, dup.JitterRetries())
	}
}

// panicAfter scores as EI for its first n calls and panics after.
type panicAfter struct {
	EI
	n     int64
	calls atomic.Int64
}

func (a *panicAfter) Score(mu, sigma, fBest float64) (score, dMu, dSigma float64) {
	if a.calls.Add(1) > a.n {
		panic("acquisition failed")
	}
	return a.EI.Score(mu, sigma, fBest)
}

// TestSuggestOrRecoversWorkerPanic: an acquisition that panics only
// after the serial scoring of the 40-point candidate pool, inside the
// multistart, reaches SuggestOr's recover at every worker count and
// counts as one fallback.
func TestSuggestOrRecoversWorkerPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		acq := &panicAfter{EI: EI{Xi: 0.01}, n: 40}
		e := New(2, Config{Seed: 5, Workers: workers, CandidatePool: 32, Portfolio: []Acquisition{acq}})
		seedEngine(e, 8, 5)
		u, fellBack := e.SuggestOr(sample.NewRNG(1))
		if !fellBack || len(u) != 2 {
			t.Errorf("workers=%d: SuggestOr = %v, fellBack %v; want a uniform fallback", workers, u, fellBack)
		}
		if calls := acq.calls.Load(); calls <= acq.n {
			t.Errorf("workers=%d: %d scores, the multistart never ran", workers, calls)
		}
	}
}
