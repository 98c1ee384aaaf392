package sparksim

import (
	"context"

	"repro/internal/backend"
	"repro/internal/conf"
)

// ResourceCostEvaluator wraps an Evaluator to optimize monetary-style
// resource cost instead of wall-clock time (§5.1 notes ROBOTune
// adapts to other metrics by replacing the objective). The objective
// becomes
//
//	cost = seconds × (occupied cores + MemoryWeight × occupied GB)
//
// so configurations that finish marginally faster by hogging the
// whole cluster lose to right-sized ones. Search-cost accounting
// (SearchCost, Evals) still measures simulated time, as in the paper.
type ResourceCostEvaluator struct {
	*Evaluator
	// MemoryWeight converts occupied memory GB into core-equivalents
	// (default 0.1: 10 GB of RAM prices like one core).
	MemoryWeight float64
}

// NewResourceCostEvaluator wraps ev with the resource-cost objective.
func NewResourceCostEvaluator(ev *Evaluator, memoryWeight float64) *ResourceCostEvaluator {
	if memoryWeight <= 0 {
		memoryWeight = 0.1
	}
	return &ResourceCostEvaluator{Evaluator: ev, MemoryWeight: memoryWeight}
}

// rate returns the per-second resource price of a configuration's
// executor layout, in core-equivalents.
func (r *ResourceCostEvaluator) rate(c conf.Config) float64 {
	ex, ok := PackExecutors(r.Cluster, c)
	if !ok {
		// Infeasible layouts are priced as the whole cluster so their
		// capped objective stays the worst case.
		return float64(r.Cluster.Workers*r.Cluster.CoresPerNode) +
			r.MemoryWeight*float64(r.Cluster.Workers)*r.Cluster.MemPerNodeMB/1024
	}
	cores := float64(ex.Count * ex.CoresEach)
	memGB := float64(ex.Count) * ex.HeapMB / 1024
	return cores + r.MemoryWeight*memGB
}

func (r *ResourceCostEvaluator) price(c conf.Config, rec backend.EvalRecord) backend.EvalRecord {
	rec.Seconds = rec.Seconds * r.rate(c)
	return rec
}

// EvaluateSpec forwards the unified spec entry point and prices the
// result; low-fidelity proxy runs are priced at the same per-second
// rate (the layout occupies the cluster either way).
func (r *ResourceCostEvaluator) EvaluateSpec(c conf.Config, spec backend.EvalSpec) backend.EvalRecord {
	return r.price(c, r.Evaluator.EvaluateSpec(c, spec))
}

// EvaluateSpecCtx forwards the unified batch entry point; skipped
// entries carry no observation and are left unpriced.
func (r *ResourceCostEvaluator) EvaluateSpecCtx(ctx context.Context, cfgs []conf.Config, spec backend.EvalSpec) []backend.EvalRecord {
	recs := r.Evaluator.EvaluateSpecCtx(ctx, cfgs, spec)
	for i := range recs {
		if recs[i].Skipped {
			continue
		}
		recs[i] = r.price(cfgs[i], recs[i])
	}
	return recs
}

// MeasureCost estimates a configuration's true resource cost without
// charging search cost.
func (r *ResourceCostEvaluator) MeasureCost(c conf.Config, reps int, seed uint64) float64 {
	return r.Evaluator.Measure(c, reps, seed) * r.rate(c)
}
