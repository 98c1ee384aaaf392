// Package trace records tuning sessions as structured, serializable
// logs — every evaluated configuration with its outcome, plus the
// session summary — so runs can be archived, diffed and analyzed
// outside the process (robotune's -trace flag writes these).
package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"repro/internal/backend"
	"repro/internal/conf"
	"repro/internal/journal"
	"repro/internal/tuners"
)

// Record is one evaluated configuration.
type Record struct {
	// Index is the evaluation's 0-based position in the session.
	Index int `json:"index"`
	// Values holds the configuration's raw parameter values.
	Values map[string]float64 `json:"values"`
	// Seconds is the objective value observed (capped for failures).
	Seconds float64 `json:"seconds"`
	// Raw is the uncapped simulated duration.
	Raw float64 `json:"raw"`
	// Completed/OOM/Infeasible/Transient classify the outcome.
	Completed  bool `json:"completed"`
	OOM        bool `json:"oom,omitempty"`
	Infeasible bool `json:"infeasible,omitempty"`
	Transient  bool `json:"transient,omitempty"`
	// FidelityInput/FidelityStage mirror the run's backend.Fidelity
	// (omitted at full fidelity): proxy observations are marked so
	// offline analysis never mistakes their seconds for full-workload
	// measurements.
	FidelityInput float64 `json:"fidelityInput,omitempty"`
	FidelityStage float64 `json:"fidelityStage,omitempty"`
}

// Session is a complete tuning session log.
type Session struct {
	Workload string   `json:"workload"`
	Dataset  string   `json:"dataset"`
	Tuner    string   `json:"tuner"`
	Budget   int      `json:"budget"`
	Seed     uint64   `json:"seed"`
	Records  []Record `json:"records"`
	// Summary fields copied from the tuner result.
	BestSeconds    float64  `json:"bestSeconds"`
	Found          bool     `json:"found"`
	SearchCost     float64  `json:"searchCost"`
	SelectionEvals int      `json:"selectionEvals,omitempty"`
	SelectionCost  float64  `json:"selectionCost,omitempty"`
	SelectedParams []string `json:"selectedParams,omitempty"`
	// Failures summarizes the session's robustness counters; Cancelled
	// marks a session that was aborted via its context.
	Failures  tuners.FailureStats `json:"failures,omitempty"`
	Cancelled bool                `json:"cancelled,omitempty"`
}

// Recorder wraps a backend evaluator (any backend.Evaluator that also
// identifies its workload, e.g. *sparksim.Evaluator or a clustersim
// evaluator) and logs every evaluation. It satisfies tuners.Objective
// and forwards the optional capabilities ROBOTune probes for.
type Recorder struct {
	inner innerEvaluator

	mu      sync.Mutex
	records []Record
}

// innerEvaluator is the capability set Recorder requires: the unified
// evaluation entry point plus the memoization identity.
type innerEvaluator interface {
	backend.Evaluator
	backend.Identifiable
}

// NewRecorder wraps an evaluator.
func NewRecorder(inner innerEvaluator) *Recorder {
	return &Recorder{inner: inner}
}

// EvaluateSpec implements tuners.Objective, logging the evaluation.
func (r *Recorder) EvaluateSpec(c conf.Config, spec backend.EvalSpec) backend.EvalRecord {
	rec := r.inner.EvaluateSpec(c, spec)
	r.log(c, rec)
	return rec
}

// EvaluateSpecCtx forwards the batch capability
// (backend.BatchEvaluator), degrading to a sequential loop when the
// wrapped evaluator lacks it. Cancellation marks the unevaluated tail
// Skipped, and skipped entries are not logged (they were never run).
func (r *Recorder) EvaluateSpecCtx(ctx context.Context, cfgs []conf.Config, spec backend.EvalSpec) []backend.EvalRecord {
	var recs []backend.EvalRecord
	if be, ok := r.inner.(backend.BatchEvaluator); ok {
		recs = be.EvaluateSpecCtx(ctx, cfgs, spec)
	} else {
		recs = make([]backend.EvalRecord, len(cfgs))
		one := backend.EvalSpec{Cap: spec.Cap, Fidelity: spec.Fidelity}
		for i, c := range cfgs {
			if ctx != nil && ctx.Err() != nil {
				recs[i] = backend.EvalRecord{Config: c, Skipped: true}
				continue
			}
			recs[i] = r.inner.EvaluateSpec(c, one)
		}
	}
	for i, rec := range recs {
		if rec.Skipped {
			continue
		}
		r.log(cfgs[i], rec)
	}
	return recs
}

// SupportsFidelity forwards the proxy-run capability
// (backend.FidelitySupporter) so multi-fidelity sessions behave
// identically under tracing.
func (r *Recorder) SupportsFidelity() bool {
	if fs, ok := r.inner.(backend.FidelitySupporter); ok {
		return fs.SupportsFidelity()
	}
	return false
}

// RestoreStream forwards the resume capability (tuners.StreamRestorer)
// when the wrapped evaluator supports it, so journaled sessions stay
// bit-identical under tracing.
func (r *Recorder) RestoreStream(evals int, cost float64) {
	if sr, ok := r.inner.(backend.StreamRestorer); ok {
		sr.RestoreStream(evals, cost)
	}
}

// SearchCost implements tuners.Objective.
func (r *Recorder) SearchCost() float64 { return r.inner.SearchCost() }

// Evals implements tuners.Objective.
func (r *Recorder) Evals() int { return r.inner.Evals() }

// WorkloadName forwards the memoization identity.
func (r *Recorder) WorkloadName() string { return r.inner.WorkloadName() }

// DatasetName forwards the memoization identity.
func (r *Recorder) DatasetName() string { return r.inner.DatasetName() }

func (r *Recorder) log(c conf.Config, rec backend.EvalRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.records = append(r.records, Record{
		Index:         len(r.records),
		Values:        c.ToMap(),
		Seconds:       sanitize(rec.Seconds),
		Raw:           sanitize(rec.Raw),
		Completed:     rec.Completed,
		OOM:           rec.OOM,
		Infeasible:    rec.Infeasible,
		Transient:     rec.Transient,
		FidelityInput: rec.Fidelity.InputScale,
		FidelityStage: rec.Fidelity.StageFrac,
	})
}

func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}

// Records returns a copy of the evaluation log so far.
func (r *Recorder) Records() []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Record(nil), r.records...)
}

// Finish assembles the session log from the recorder and the tuner's
// result.
func (r *Recorder) Finish(tunerName string, budget int, seed uint64, res tuners.Result) Session {
	return Session{
		Workload:       r.WorkloadName(),
		Dataset:        r.DatasetName(),
		Tuner:          tunerName,
		Budget:         budget,
		Seed:           seed,
		Records:        r.Records(),
		BestSeconds:    sanitize(res.BestSeconds),
		Found:          res.Found,
		SearchCost:     res.SearchCost,
		SelectionEvals: res.SelectionEvals,
		SelectionCost:  res.SelectionCost,
		SelectedParams: res.SelectedParams,
		Failures:       res.Failures,
		Cancelled:      res.Cancelled,
	}
}

// Save writes the session as indented JSON.
func (s Session) Save(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("trace: marshal: %w", err)
	}
	if err := journal.WriteFile(path, data); err != nil {
		return fmt.Errorf("trace: write: %w", err)
	}
	return nil
}
