// Package backend defines the contracts between the tuner stack and
// an evaluation substrate. The tuning pipeline (probe → parameter
// selection → GP-BO with guard caps) is not Spark-specific: tuners,
// the session machinery, tracing, journaling, scheduling and the wire
// protocol all operate on the types in this package, and a concrete
// backend — internal/sparksim (Spark analytics jobs on a cluster),
// internal/clustersim (a multi-tenant cluster manager's scheduling
// policy) — plugs in underneath by implementing Evaluator.
//
// The dependency rule, enforced by TestArchBoundary: nothing outside a
// backend implementation imports a backend implementation. Everything
// above the seam — including cmd binaries — reaches concrete backends
// through the Registry.
package backend

import (
	"context"

	"repro/internal/conf"
)

// Evaluator is the expensive black box a tuner optimizes: one run of
// the backend's workload under a configuration, driven by an EvalSpec
// (cap + fidelity), with bookkeeping of evaluation count and search
// cost. It must be safe for concurrent use.
//
// EvaluateSpec is the single evaluation entry point — there is
// deliberately no plain Evaluate or EvaluateWithCap surface; the zero
// EvalSpec means "full fidelity, global cap".
type Evaluator interface {
	EvaluateSpec(c conf.Config, spec EvalSpec) EvalRecord
	// SearchCost returns the accumulated evaluation cost in seconds.
	SearchCost() float64
	// Evals returns the number of evaluations charged so far.
	Evals() int
}

// BatchEvaluator is the optional concurrent-evaluation capability:
// every configuration runs under the same spec, on up to spec.Workers
// goroutines, bit-identical to sequential EvaluateSpec calls in the
// same order. Once ctx is done, no further configurations are
// dispatched; never-dispatched entries come back Skipped (no
// observation, no cost). Its presence changes which algorithm path a
// tuner picks, so wrappers must only claim it when their inner
// objective does.
type BatchEvaluator interface {
	EvaluateSpecCtx(ctx context.Context, cfgs []conf.Config, spec EvalSpec) []EvalRecord
}

// StreamRestorer is the optional capability a durable session needs
// from its objective for bit-identical resume: restoring the
// evaluation counter and accumulated search cost to a journaled
// position. The per-run noise and fault streams are derived from the
// evaluation index, so an objective that can restore the counter will
// hand post-replay live evaluations exactly the streams the
// uninterrupted run would have consumed. An objective without it still
// replays the journaled prefix, but its later live evaluations draw
// from the start of their streams.
type StreamRestorer interface {
	RestoreStream(evals int, cost float64)
}

// Identifiable is the optional workload-identity capability ROBOTune
// keys its memoization and selection caches on.
type Identifiable interface {
	WorkloadName() string
	DatasetName() string
}

// Measurer is the optional final-quality capability: estimate a
// configuration's true performance by averaging reps fresh runs
// without charging search cost (and, for fault-injecting backends,
// without faults — Measure reports what the configuration is worth,
// not what a faulty session observed).
type Measurer interface {
	Measure(c conf.Config, reps int, seed uint64) float64
}

// FidelitySupporter marks evaluators whose EvaluateSpec honors
// EvalSpec.Fidelity by deriving a cheap proxy run. The session
// degrades proxy requests to full fidelity for objectives without
// the capability (or whose SupportsFidelity reports false), keeping
// the journal honest about what actually ran.
type FidelitySupporter interface {
	SupportsFidelity() bool
}

// Workload identifies one tunable job of a backend: a named workload
// family on a named input dataset. Concrete backends carry the actual
// plan (Spark stage DAGs, cluster job traces) in their own types;
// everything above the seam needs only identity and a description.
type Workload interface {
	WorkloadName() string
	DatasetName() string
	// Describe renders a human-readable summary of the plan.
	Describe() string
}
