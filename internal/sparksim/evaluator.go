package sparksim

import (
	"math/rand/v2"

	"repro/internal/backend"
	"repro/internal/conf"
)

// Evaluator exposes the simulator as the expensive black-box
// objective f(x) of §3.1, with the paper's per-evaluation time limit
// (§5.1 uses 480 s) and bookkeeping of search cost — "the total time
// to generate and evaluate configurations" (§5.3). The embedded
// backend.Harness owns the noise and fault streams, index reservation,
// cost commit ordering, batch dispatch and Measure; sparksim supplies
// the per-run simulation (fault realization, fidelity-derived proxy
// workload).
//
// Evaluator is safe for concurrent use. Faults may be set before the
// evaluator is shared; mutating it concurrently with evaluations is
// not supported.
type Evaluator struct {
	backend.Harness
	Cluster  Cluster
	Workload Workload
}

// NewEvaluator builds an evaluator for a workload on a cluster. seed
// makes the noise sequence reproducible; cap <= 0 selects the paper's
// 480 s limit.
func NewEvaluator(cl Cluster, w Workload, seed uint64, cap float64) *Evaluator {
	ev := &Evaluator{Cluster: cl, Workload: w}
	ev.Init(seed, cap, ev.runOn)
	return ev
}

// WorkloadName returns the workload family being tuned (used as the
// memoization key by ROBOTune).
func (ev *Evaluator) WorkloadName() string { return ev.Workload.Name }

// DatasetName returns the input dataset description.
func (ev *Evaluator) DatasetName() string { return ev.Workload.Dataset }

// runOn executes one simulated run of the fidelity-derived proxy
// workload on the harness's streams. Deriving the proxy never touches
// a stream, so a proxy run at index i consumes exactly the randomness
// a full-fidelity run at i would have. A nil fault stream reduces
// RunWithFaults to Run exactly.
func (ev *Evaluator) runOn(c conf.Config, rng, frng *rand.Rand, plan backend.FaultPlan, cap float64, fid backend.Fidelity) backend.Outcome {
	out := RunWithFaults(ev.Cluster, ApplyFidelity(fid, ev.Workload), c, rng, cap, plan, frng)
	return backend.Outcome{
		Seconds:    out.Seconds,
		Completed:  out.Completed,
		OOM:        out.OOM,
		Transient:  out.Transient,
		Infeasible: out.Infeasible,
	}
}
