package clustersim

import (
	"math/rand/v2"

	"repro/internal/backend"
	"repro/internal/conf"
)

// Evaluator exposes the cluster-scheduler simulator as the expensive
// black-box objective the tuner stack drives, with the same
// search-cost accounting, guard-cap semantics and deterministic
// (seed, index) stream discipline as every other backend: the
// embedded backend.Harness owns the noise and fault streams, index
// reservation, cost commit ordering, batch dispatch and Measure;
// clustersim supplies the per-run simulation.
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
	ev.Init(seed, cap, ev.runOn)
	return ev
}

// WorkloadName returns the trace family being tuned (used as the
// memoization key by ROBOTune).
func (ev *Evaluator) WorkloadName() string { return ev.Workload.Name }

// DatasetName returns the trace scale identity.
func (ev *Evaluator) DatasetName() string { return ev.Workload.Dataset }

// runOn executes one simulated trace replay of the fidelity-derived
// proxy trace on the harness's streams, injecting the plan's faults
// when the harness built a fault stream. Deriving the proxy never
// touches a stream, so a proxy run at index i consumes exactly the
// randomness a full-fidelity run at i would have.
func (ev *Evaluator) runOn(c conf.Config, rng, frng *rand.Rand, plan backend.FaultPlan, cap float64, fid backend.Fidelity) backend.Outcome {
	w := ApplyFidelity(fid, ev.Workload)
	if frng == nil {
		return Run(w, c, rng, cap)
	}
	return RunWithFaults(w, c, rng, cap, plan, frng)
}
