package backend

import "repro/internal/conf"

// EvalRecord is one observation of the black-box objective.
type EvalRecord struct {
	Config conf.Config
	// Seconds is the objective value: execution time (or the backend's
	// chosen metric), capped at the evaluation limit. Failed
	// configurations report the limit.
	Seconds float64
	// Raw is the uncapped simulated duration (or time consumed before
	// failure/truncation).
	Raw float64
	// Completed, OOM and Infeasible mirror the run outcome.
	Completed  bool
	OOM        bool
	Infeasible bool
	// Transient marks a retryable failure (lost heartbeat, fetch
	// storm): re-running the same configuration may succeed.
	Transient bool
	// Skipped marks an evaluation that never ran because its batch was
	// cancelled: it carries no observation and was charged no cost.
	Skipped bool
	// Fidelity records the proxy scale the run executed at. The zero
	// value is full fidelity; lower fidelities mean Seconds measures a
	// deterministically derived cheap proxy workload, not the full
	// job, and is comparable only with observations at the same
	// fidelity.
	Fidelity Fidelity
}

// EvalSpec bundles every per-evaluation control into one value: the
// guard cap, the fidelity, and the batch parallelism. The zero value
// means full fidelity, the evaluator's global cap, sequential
// execution. It is the single argument of the unified evaluation
// entry points (Evaluator.EvaluateSpec / BatchEvaluator.EvaluateSpecCtx
// and the tuners.Session evaluation path).
type EvalSpec struct {
	// Cap is the per-run stopping threshold in simulated seconds;
	// <= 0 or above the evaluator's global limit selects the limit.
	Cap float64
	// Fidelity selects the proxy scale (zero = full workload).
	Fidelity Fidelity
	// Workers bounds batch parallelism (<= 0 = GOMAXPROCS). Ignored
	// for single evaluations.
	Workers int
}
