package sparksim

import (
	"math"

	"repro/internal/backend"
	"repro/internal/conf"
	"repro/internal/sample"
)

// Evaluator exposes the simulator as the expensive black-box
// objective f(x) of §3.1, with the paper's per-evaluation time limit
// (§5.1 uses 480 s) and bookkeeping of search cost — "the total time
// to generate and evaluate configurations" (§5.3). The embedded
// backend.Harness owns index reservation, cost commit ordering and
// batch dispatch; sparksim supplies the per-run
// simulation (noise stream, fault realization, fidelity-derived proxy
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
	ev.Init(seed, cap, ev.runAt)
	return ev
}

// WorkloadName returns the workload family being tuned (used as the
// memoization key by ROBOTune).
func (ev *Evaluator) WorkloadName() string { return ev.Workload.Name }

// DatasetName returns the input dataset description.
func (ev *Evaluator) DatasetName() string { return ev.Workload.Dataset }

// runAt executes one simulated run at the given evaluation index,
// injecting the plan's faults when enabled. The noise and fault
// streams are seeded by the index alone, so a proxy run at index i
// consumes exactly the stream a full-fidelity run at i would have —
// fidelity never shifts the randomness of later evaluations.
func (ev *Evaluator) runAt(c conf.Config, seed uint64, idx int, plan backend.FaultPlan, cap float64, fid backend.Fidelity) backend.Outcome {
	w := ApplyFidelity(fid, ev.Workload)
	rng := sample.NewRNG(seed*1e9 + uint64(idx))
	var out Outcome
	if !plan.Enabled() {
		out = Run(ev.Cluster, w, c, rng, cap)
	} else {
		frng := sample.NewRNG(plan.Seed ^ (seed*1e9 + uint64(idx)) ^ 0xfa1175ee)
		out = RunWithFaults(ev.Cluster, w, c, rng, cap, plan, frng)
	}
	return backend.Outcome{
		Seconds:    out.Seconds,
		Completed:  out.Completed,
		OOM:        out.OOM,
		Transient:  out.Transient,
		Infeasible: out.Infeasible,
	}
}

// Measure estimates a configuration's true performance by averaging
// reps fresh runs without charging search cost — used when reporting
// the quality of each tuner's final choice. Fault injection does not
// apply: Measure reports what the configuration is worth, not what a
// faulty session observed.
func (ev *Evaluator) Measure(c conf.Config, reps int, seed uint64) float64 {
	if reps < 1 {
		reps = 1
	}
	var sum float64
	for i := 0; i < reps; i++ {
		rng := sample.NewRNG(seed*31 + uint64(i) + 7)
		out := Run(ev.Cluster, ev.Workload, c, rng, ev.CapSeconds)
		s := math.Min(out.Seconds, ev.CapSeconds)
		if !out.Completed {
			s = ev.CapSeconds
		}
		sum += s
	}
	return sum / float64(reps)
}
