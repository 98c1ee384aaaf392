package tuners

import (
	"math"
	"sync"

	"repro/internal/backend"
	"repro/internal/conf"
)

// FuncObjective adapts a plain Go function to the Objective interface,
// so any measurable system — not just the Spark simulator — can be
// tuned (§4: the framework is modular; only the configuration encoder
// and objective are system-specific). The function returns the
// measured cost in seconds and whether the run succeeded.
//
// FuncObjective is safe for concurrent use.
type FuncObjective struct {
	// Fn measures one configuration.
	Fn func(c conf.Config) (seconds float64, ok bool)
	// FnOutcome, when set, takes precedence over Fn and additionally
	// reports whether a failure was transient (worth retrying under a
	// Session's RetryPolicy).
	FnOutcome func(c conf.Config) (seconds float64, ok, transient bool)
	// Cap is the per-evaluation limit (the guard and failed runs
	// report this value); <= 0 means 480, the paper's default.
	Cap float64
	// Workload and Dataset, when set, key ROBOTune's memoization.
	Workload, Dataset string

	mu    sync.Mutex
	evals int
	cost  float64
}

// EvaluateSpec implements Objective. The spec's cap supports
// ROBOTune's bad-configuration guard: runs whose measured time
// exceeds the cap are charged only the cap and valued at the global
// limit. The fidelity axis is ignored — a plain function has no proxy
// form, and FuncObjective does not claim backend.FidelitySupporter,
// so sessions degrade proxy requests to full fidelity before they
// reach it.
func (f *FuncObjective) EvaluateSpec(c conf.Config, spec backend.EvalSpec) backend.EvalRecord {
	limit := f.capSeconds()
	cap := spec.Cap
	if cap <= 0 || cap > limit {
		cap = limit
	}
	var (
		sec       float64
		ok        bool
		transient bool
	)
	if f.FnOutcome != nil {
		sec, ok, transient = f.FnOutcome(c)
	} else {
		sec, ok = f.Fn(c)
	}
	consumed := math.Min(sec, cap)

	f.mu.Lock()
	f.evals++
	f.cost += consumed
	f.mu.Unlock()

	rec := backend.EvalRecord{Config: c, Raw: sec, Transient: transient && !ok}
	if ok && sec <= cap {
		rec.Completed = true
		rec.Seconds = consumed
	} else {
		rec.Seconds = limit
	}
	return rec
}

func (f *FuncObjective) capSeconds() float64 {
	if f.Cap <= 0 {
		return 480
	}
	return f.Cap
}

// SearchCost implements Objective.
func (f *FuncObjective) SearchCost() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cost
}

// Evals implements Objective.
func (f *FuncObjective) Evals() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.evals
}

// RestoreStream implements backend.StreamRestorer: a resumed durable
// session moves the counters to the journaled position so evaluation
// and cost accounting continue where the interrupted run left off.
func (f *FuncObjective) RestoreStream(evals int, cost float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.evals = evals
	f.cost = cost
}

// WorkloadName keys ROBOTune's caches when Workload is set.
func (f *FuncObjective) WorkloadName() string { return f.Workload }

// DatasetName completes the memoization identity.
func (f *FuncObjective) DatasetName() string { return f.Dataset }
