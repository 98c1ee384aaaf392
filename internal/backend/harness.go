package backend

import (
	"context"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"

	"repro/internal/conf"
	"repro/internal/sample"
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
// drawing its noise from rng and, when frng is not nil, the plan's
// incidents from frng, under the stopping cap and at the fidelity.
// The harness derives both streams from the noise seed and an
// evaluation index it reserves in dispatch order, so a RunFunc that
// draws only from them is bit-identical whether runs execute
// sequentially or in a batch.
type RunFunc func(c conf.Config, rng, frng *rand.Rand, plan FaultPlan, cap float64, fid Fidelity) Outcome

// Harness is the accounting core shared by backend evaluators: the
// per-run noise and fault streams, index reservation, cost commit
// ordering, batch dispatch with cancellation, quality measurement and
// the stream-restore half of durable resume. A backend embeds a
// Harness and supplies its RunFunc; the harness turns it into the full
// Evaluator + BatchEvaluator + StreamRestorer + Measurer surface with
// the exact stream derivation and commit arithmetic the journal and
// the parity suites pin.
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

// runAt executes one run at evaluation index idx. The noise stream is
// seeded seed*1e9+idx; the fault stream mixes the plan's seed into the
// same index and is built only when the plan injects anything, so a
// zero plan consumes no randomness.
func (h *Harness) runAt(c conf.Config, idx int, cap float64, fid Fidelity) Outcome {
	stream := h.seed*1e9 + uint64(idx)
	var frng *rand.Rand
	if h.Faults.Enabled() {
		frng = sample.NewRNG(h.Faults.Seed ^ stream ^ 0xfa1175ee)
	}
	return h.run(c, sample.NewRNG(stream), frng, h.Faults, cap, fid)
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

	out := h.runAt(c, n, cap, spec.Fidelity)
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
				out := h.runAt(cfgs[i], base+i, cap, spec.Fidelity)
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

// Measure implements Measurer: the mean of reps fresh fault-free,
// full-fidelity runs under the global cap, seeded seed*31+i+7 for the
// i-th, with a failed run worth the cap. Nothing is charged: Measure
// reports what a configuration is worth, not what a faulty session
// observed.
func (h *Harness) Measure(c conf.Config, reps int, seed uint64) float64 {
	if reps < 1 {
		reps = 1
	}
	var sum float64
	for i := 0; i < reps; i++ {
		out := h.run(c, sample.NewRNG(seed*31+uint64(i)+7), nil, FaultPlan{}, h.CapSeconds, Fidelity{})
		s := math.Min(out.Seconds, h.CapSeconds)
		if !out.Completed {
			s = h.CapSeconds
		}
		sum += s
	}
	return sum / float64(reps)
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
