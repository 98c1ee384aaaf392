package backend

import (
	"context"
	"math"
	"runtime"
	"sync"

	"repro/internal/conf"
)

// Outcome is what one run of a backend's simulator reports to the
// harness. Backends with richer outcome types (events, per-stage
// breakdowns) convert down to this before handing the run back.
type Outcome struct {
	// Seconds is the simulated execution time; for failed or truncated
	// runs, the time consumed up to that point.
	Seconds float64
	// Completed is true when the run finished successfully.
	Completed bool
	// OOM, Transient and Infeasible classify the failure.
	OOM        bool
	Transient  bool
	Infeasible bool
}

// RunFunc executes one run of the backend's workload: configuration c
// at evaluation index idx, under the given noise seed, fault plan,
// stopping cap and fidelity. The harness guarantees idx is unique per
// charged evaluation and reserved in dispatch order, so a RunFunc that
// derives its noise and fault streams from (seed, idx) alone is
// bit-identical whether runs execute sequentially or in a batch.
type RunFunc func(c conf.Config, seed uint64, idx int, plan FaultPlan, cap float64, fid Fidelity) Outcome

// Harness is the accounting core shared by backend evaluators: index
// reservation, cost commit ordering, batch dispatch with cancellation,
// and the stream-restore half of durable resume. A
// backend embeds a Harness and supplies its RunFunc; the harness
// turns it into the full Evaluator + BatchEvaluator + StreamRestorer
// surface with the exact commit arithmetic the journal and the parity
// suites pin.
//
// Harness is safe for concurrent use. Faults may be set before the
// evaluator is shared; mutating it concurrently with evaluations is
// not supported.
type Harness struct {
	// CapSeconds is the global per-evaluation limit: the worst-case
	// objective value charged to failed runs and the clamp on any
	// tuner-chosen cap.
	CapSeconds float64
	// Faults, when enabled, injects the plan's incidents into every
	// charged evaluation. Faults for a given evaluation index are
	// drawn from a dedicated stream, so the same (seed, plan)
	// reproduces the same incidents sequentially or in a parallel
	// batch.
	Faults FaultPlan

	run  RunFunc
	seed uint64 // set once by Init, so evaluations read it without mu

	mu    sync.Mutex
	evals int
	cost  float64
}

// Init prepares the harness in place (a constructor would copy the
// mutex). cap <= 0 selects the paper's 480 s limit.
func (h *Harness) Init(seed uint64, cap float64, run RunFunc) {
	if cap <= 0 {
		cap = 480
	}
	h.CapSeconds = cap
	h.seed = seed
	h.run = run
}

// record converts an outcome into the charged observation.
func (h *Harness) record(c conf.Config, out Outcome, cap float64, fid Fidelity) EvalRecord {
	rec := EvalRecord{
		Config:     c,
		Raw:        out.Seconds,
		Completed:  out.Completed,
		OOM:        out.OOM,
		Infeasible: out.Infeasible,
		Transient:  out.Transient,
	}
	if !fid.Full() {
		rec.Fidelity = fid
	}
	if out.Completed {
		rec.Seconds = math.Min(out.Seconds, cap)
	} else {
		// Failed, infeasible or truncated runs are worth the global
		// cap to the optimizer (worst case) but only charge what they
		// actually burned before the guard stopped them.
		rec.Seconds = h.CapSeconds
	}
	return rec
}

// EvaluateSpec is the unified single-run entry point: one run under
// the spec's cap and fidelity. A non-full fidelity runs the derived
// proxy workload; the search cost is charged what the proxy actually
// consumed, which is the whole point of multi-fidelity tuning.
func (h *Harness) EvaluateSpec(c conf.Config, spec EvalSpec) EvalRecord {
	cap := spec.Cap
	if cap <= 0 || cap > h.CapSeconds {
		cap = h.CapSeconds
	}
	h.mu.Lock()
	n := h.evals
	h.evals++
	h.mu.Unlock()

	out := h.run(c, h.seed, n, h.Faults, cap, spec.Fidelity)
	h.mu.Lock()
	h.cost += math.Min(out.Seconds, cap)
	h.mu.Unlock()
	return h.record(c, out, cap, spec.Fidelity)
}

// EvaluateSpecCtx is the unified batch entry point: every
// configuration runs under the same spec (cap and fidelity), on up to
// spec.Workers goroutines (default GOMAXPROCS), while reproducing the
// exact observations sequential EvaluateSpec calls would have
// produced: evaluation indices — which seed the per-run noise and
// fault streams — are assigned up front, and cost is committed in
// index order. Once ctx is done, no further configurations are
// dispatched; in-flight runs finish and are charged normally, and
// never-dispatched entries come back with Skipped=true (no
// observation, no cost). A nil ctx means no cancellation.
func (h *Harness) EvaluateSpecCtx(ctx context.Context, cfgs []conf.Config, spec EvalSpec) []EvalRecord {
	workers := spec.Workers
	cap := spec.Cap
	if cap <= 0 || cap > h.CapSeconds {
		cap = h.CapSeconds
	}
	n := len(cfgs)
	if n == 0 {
		return nil
	}
	skipAll := func() []EvalRecord {
		recs := make([]EvalRecord, n)
		for i := range recs {
			recs[i] = EvalRecord{Config: cfgs[i], Skipped: true}
		}
		return recs
	}
	if ctx != nil {
		select {
		case <-ctx.Done():
			return skipAll()
		default:
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	h.mu.Lock()
	base := h.evals
	h.evals += n
	h.mu.Unlock()

	recs := make([]EvalRecord, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out := h.run(cfgs[i], h.seed, base+i, h.Faults, cap, spec.Fidelity)
				recs[i] = h.record(cfgs[i], out, cap, spec.Fidelity)
			}
		}()
	}
	// The dispatch loop is the single cancellation point: indices past
	// the first observed cancellation are marked skipped below.
	dispatched := n
dispatch:
	for i := 0; i < n; i++ {
		if ctx != nil {
			select {
			case <-ctx.Done():
				dispatched = i
				break dispatch
			case next <- i:
				continue
			}
		}
		next <- i
	}
	close(next)
	wg.Wait()
	for i := dispatched; i < n; i++ {
		recs[i] = EvalRecord{Config: cfgs[i], Skipped: true}
	}

	h.mu.Lock()
	for _, rec := range recs {
		if rec.Skipped {
			continue
		}
		h.cost += math.Min(rec.Raw, cap)
	}
	h.mu.Unlock()
	return recs
}

// Evals returns the number of charged evaluations so far.
func (h *Harness) Evals() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.evals
}

// SearchCost returns the accumulated simulated seconds consumed by
// charged evaluations.
func (h *Harness) SearchCost() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cost
}

// RestoreStream moves the evaluation counter and accumulated search
// cost to a journaled position (StreamRestorer). The per-run noise
// and fault streams are derived from the evaluation index, so a
// resumed session that restores the counter hands its post-replay
// live evaluations exactly the streams the uninterrupted run would
// have consumed. Replayed observations live in the session's trace,
// not here.
func (h *Harness) RestoreStream(evals int, cost float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.evals = evals
	h.cost = cost
}

// SupportsFidelity implements FidelitySupporter: harness-backed
// evaluators hand EvalSpec.Fidelity to their RunFunc, which derives
// the proxy workload.
func (h *Harness) SupportsFidelity() bool { return true }
