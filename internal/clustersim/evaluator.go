package clustersim

import (
	"math"

	"repro/internal/backend"
	"repro/internal/conf"
	"repro/internal/sample"
)

// Evaluator exposes the cluster-scheduler simulator as the expensive
// black-box objective the tuner stack drives, with the same
// search-cost accounting, guard-cap semantics and deterministic
// (seed, index) stream discipline as every other backend: the
// embedded backend.Harness owns index reservation, cost commit
// ordering and batch dispatch; clustersim supplies the per-run
// simulation.
//
// Evaluator is safe for concurrent use. Faults may be set before the
// evaluator is shared; mutating it concurrently with evaluations is
// not supported.
type Evaluator struct {
	backend.Harness
	Workload Workload
}

// NewEvaluator builds an evaluator for a workload trace. seed makes
// the noise sequence reproducible; cap <= 0 selects the backend's
// default limit.
func NewEvaluator(w Workload, seed uint64, cap float64) *Evaluator {
	if cap <= 0 {
		cap = DefaultCapSeconds
	}
	ev := &Evaluator{Workload: w}
	ev.Init(seed, cap, ev.runAt)
	return ev
}

// WorkloadName returns the trace family being tuned (used as the
// memoization key by ROBOTune).
func (ev *Evaluator) WorkloadName() string { return ev.Workload.Name }

// DatasetName returns the trace scale identity.
func (ev *Evaluator) DatasetName() string { return ev.Workload.Dataset }

// runAt executes one simulated trace replay at the given evaluation
// index, injecting the plan's faults when enabled. The noise and
// fault streams are seeded by the index alone, so a proxy run at
// index i consumes exactly the stream a full-fidelity run at i would
// have — fidelity never shifts the randomness of later evaluations.
func (ev *Evaluator) runAt(c conf.Config, seed uint64, idx int, plan backend.FaultPlan, cap float64, fid backend.Fidelity) backend.Outcome {
	w := ApplyFidelity(fid, ev.Workload)
	rng := sample.NewRNG(seed*1e9 + uint64(idx))
	if !plan.Enabled() {
		return Run(w, c, rng, cap)
	}
	frng := sample.NewRNG(plan.Seed ^ (seed*1e9 + uint64(idx)) ^ 0xfa1175ee)
	return RunWithFaults(w, c, rng, cap, plan, frng)
}

// Measure estimates a configuration's true performance by averaging
// reps fresh fault-free runs without charging search cost — used when
// reporting the quality of each tuner's final choice.
func (ev *Evaluator) Measure(c conf.Config, reps int, seed uint64) float64 {
	if reps < 1 {
		reps = 1
	}
	var sum float64
	for i := 0; i < reps; i++ {
		rng := sample.NewRNG(seed*31 + uint64(i) + 7)
		out := Run(ev.Workload, c, rng, ev.CapSeconds)
		s := math.Min(out.Seconds, ev.CapSeconds)
		if !out.Completed {
			s = ev.CapSeconds
		}
		sum += s
	}
	return sum / float64(reps)
}
