// Package tuners defines the common tuner interface and the three
// comparison baselines evaluated against ROBOTune in §5: Random
// Search, BestConfig (divide-and-diverge sampling with recursive
// bound-and-search, Zhu et al. SoCC'17) and Gunther (a genetic
// algorithm with aggressive selection and mutation, Liao et al.
// Euro-Par'13). All three search the full 44-dimensional space — none
// performs parameter selection — and all respect the same
// per-evaluation stopping guard via the shared Objective.
package tuners

import (
	"math"

	"repro/internal/backend"
	"repro/internal/conf"
)

// Objective is the expensive black box a tuner optimizes — exactly
// the backend-neutral evaluator contract (EvaluateSpec + cost
// counters). Any registered backend's evaluator satisfies it; tests
// substitute synthetic objectives.
type Objective = backend.Evaluator

// Result summarizes a tuning session.
type Result struct {
	// Best is the best completed configuration found.
	Best conf.Config
	// BestSeconds is its observed objective value.
	BestSeconds float64
	// Found is false when no configuration completed within budget.
	Found bool
	// Evals is the number of evaluations consumed.
	Evals int
	// SearchCost is the total simulated seconds spent evaluating.
	SearchCost float64
	// Trace holds the observed objective value of every evaluation in
	// order, for search-speed analysis (Figure 6, Table 2). It
	// includes capped and failed observations — a trial stopped by the
	// guard or deadline contributes its capped duration, an OOM or
	// infeasible run its charged time — so the trace is the session's
	// full spend, not just its successes. Use Completed to tell them
	// apart.
	Trace []float64
	// Completed parallels Trace: Completed[i] is true when the i-th
	// observation finished (its Trace value is a measurement), false
	// when it was capped or failed (its Trace value is a floor).
	Completed []bool
	// Proxy parallels Trace: Proxy[i] is true when the i-th
	// observation ran at reduced fidelity — its seconds measure a
	// scaled-down workload and are not comparable with full-fidelity
	// entries (convergence analysis must skip them). All false for
	// single-fidelity tuners.
	Proxy []bool
	// SelectedParams lists the high-impact parameters tuned, when the
	// tuner performs parameter selection (ROBOTune); nil otherwise.
	SelectedParams []string
	// SelectionEvals and SelectionCost report the one-time parameter
	// selection phase, which §5.3 excludes from search-cost
	// comparisons. Both are zero for tuners without selection and for
	// selection-cache hits. Evals and SearchCost above cover only the
	// tuning phase.
	SelectionEvals int
	SelectionCost  float64
	// Failures is the session's failure/retry ledger.
	Failures FailureStats
	// SurrogateFallbacks counts BO iterations that fell back to a
	// random suggestion because the surrogate could not be fit even at
	// maximum jitter — graceful degradation instead of aborting a
	// paid-for campaign. Zero for tuners without a surrogate.
	SurrogateFallbacks int
	// Cancelled is true when the session's context was cancelled and
	// the result holds the best-so-far at that point.
	Cancelled bool
}

// Tuner finds a good configuration within a session's budget of
// evaluations. Run executes under the session's robustness envelope
// (cancellation, deadlines, retries, failure accounting, journaling);
// a zero Request is a plain budget-and-seed run.
type Tuner interface {
	Name() string
	Run(s *Session) Result
}

// tracker accumulates the incumbent across evaluations.
type tracker struct {
	best      conf.Config
	bestSec   float64
	found     bool
	trace     []float64
	completed []bool
	proxy     []bool
}

func newTracker() *tracker { return &tracker{bestSec: math.Inf(1)} }

func (t *tracker) observe(c conf.Config, rec backend.EvalRecord) {
	t.trace = append(t.trace, rec.Seconds)
	t.completed = append(t.completed, rec.Completed)
	t.proxy = append(t.proxy, !rec.Fidelity.Full())
	// Only full-fidelity completions can take the incumbent: a proxy
	// run's seconds measure a reduced workload and are incomparable
	// with — and far smaller than — full-fidelity observations.
	if rec.Completed && rec.Fidelity.Full() && rec.Seconds < t.bestSec {
		t.best = c
		t.bestSec = rec.Seconds
		t.found = true
	}
}

func (t *tracker) result() Result {
	return Result{
		Best:        t.best,
		BestSeconds: t.bestSec,
		Found:       t.found,
		Trace:       append([]float64(nil), t.trace...),
		Completed:   append([]bool(nil), t.completed...),
		Proxy:       append([]bool(nil), t.proxy...),
	}
}
