// Wire types and JSON decoders of the robotuned protocol. Every
// request body that crosses the trust boundary is decoded and
// validated here — the fuzz suite (FuzzSessionSpec, FuzzObserveBody)
// hammers these functions with hostile bytes, and nothing past them
// may panic or corrupt a session. Numbers are re-checked for
// NaN/Inf even though JSON cannot encode them directly: a decoder
// swap or a future format must not weaken the invariant that only
// finite observations reach a tuner.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/backend"
	"repro/internal/bo"
	"repro/internal/cli"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/schedule"
	"repro/internal/tuners"
)

// Limits bound what a single request may carry; they are generous for
// real clients and tight enough that a hostile body cannot balloon
// memory.
const (
	// MaxBodyBytes caps any request body.
	MaxBodyBytes = 4 << 20
	// MaxBatch caps proposals returned (and observations accepted) per
	// request. A client wanting more simply calls again.
	MaxBatch = 1024
	// MaxBudget caps a session's evaluation budget.
	MaxBudget = 10_000_000
	// MaxSpaceDim caps the dimensionality of a client-supplied space.
	MaxSpaceDim = 4096
)

// SessionSpec is the body of POST /v1/sessions: everything needed to
// build (and, after a crash, rebuild) a tuning session. It is
// persisted verbatim next to the session's journal, so every field
// must be sufficient to reconstruct the stepper deterministically.
type SessionSpec struct {
	// Tuner is the tuner kind (cli.TunerKinds: robotune, bestconfig,
	// gunther, randomsearch, successivehalving, cmaes, bohb) or one of
	// its aliases, case-insensitive.
	Tuner string `json:"tuner"`
	// Space is either a JSON string naming a built-in backend space —
	// "spark" (the 44-parameter Spark space) or any other registered
	// backend such as "clustersim" — or an inline space definition in
	// the conf.ParseSpace schema ({"system": ..., "params": [...]}).
	Space json.RawMessage `json:"space"`
	// Budget is the evaluation budget.
	Budget int `json:"budget"`
	// Seed drives the tuner's randomness; the same spec and the same
	// observation sequence reproduce the same proposals bit-for-bit.
	Seed uint64 `json:"seed"`
	// Workload and Dataset key ROBOTune's memoization; optional.
	Workload string `json:"workload,omitempty"`
	Dataset  string `json:"dataset,omitempty"`
	// Priority is the session's slot class on a server running with a
	// bounded propose-compute pool: "latency" sessions overtake queued
	// "bulk" (default) work at every slot hand-off. Ignored by servers
	// without a pool.
	Priority string `json:"priority,omitempty"`
	// Sync selects the journal fsync policy: "always" (default — an
	// observation is durable before the tuner acts on it) or "none"
	// (the OS flushes on its own schedule; a kernel crash may lose
	// trailing observations, a process crash does not).
	Sync string `json:"sync,omitempty"`
	// Options tunes ROBOTune-specific knobs; ignored by the baselines.
	Options SpecOptions `json:"options,omitempty"`
}

// SpecOptions is the wire subset of core.Options. Zero values select
// the paper defaults.
type SpecOptions struct {
	GenericSamples      int     `json:"generic_samples,omitempty"`
	TuningSamples       int     `json:"tuning_samples,omitempty"`
	PermuteRepeats      int     `json:"permute_repeats,omitempty"`
	MinSelected         int     `json:"min_selected,omitempty"`
	MaxSelected         int     `json:"max_selected,omitempty"`
	ImportanceThreshold float64 `json:"importance_threshold,omitempty"`
	GuardMultiple       float64 `json:"guard_multiple,omitempty"`
	EarlyStopPatience   int     `json:"early_stop_patience,omitempty"`
	EarlyStopEpsilon    float64 `json:"early_stop_epsilon,omitempty"`
	Workers             int     `json:"workers,omitempty"`
	// RefitBudget caps GP hyperparameter-refit time at this fraction
	// of session wall clock (0 = fixed every-5 cadence); applies to
	// robotune and bohb.
	RefitBudget float64 `json:"refit_budget,omitempty"`
	// Sparse switches the surrogate to the bounded local-subset path
	// past SparseThreshold observations (default threshold 512);
	// applies to robotune and bohb.
	Sparse          bool `json:"sparse,omitempty"`
	SparseThreshold int  `json:"sparse_threshold,omitempty"`
	// FidelityLadder is the fidelity ladder for the bohb tuner: 1-16
	// finite values, strictly ascending, each in (0, 1], ending at
	// exactly 1. Empty selects the default ladder; other tuners
	// ignore it.
	FidelityLadder []float64 `json:"fidelity_ladder,omitempty"`
	// FidelityAxis is the workload dimension the ladder scales:
	// "input" (data volumes; the default when empty) or "stage"
	// (stage-plan prefix). bohb-only, like the ladder.
	FidelityAxis string `json:"fidelity_axis,omitempty"`
	// CostAware divides positive acquisition scores by predicted
	// evaluation cost (EI-per-second); applies to robotune and bohb.
	CostAware bool `json:"cost_aware,omitempty"`
}

// coreOptions maps the wire knobs onto core.Options.
func (o SpecOptions) coreOptions() core.Options {
	return core.Options{
		GenericSamples:      o.GenericSamples,
		TuningSamples:       o.TuningSamples,
		PermuteRepeats:      o.PermuteRepeats,
		MinSelected:         o.MinSelected,
		MaxSelected:         o.MaxSelected,
		ImportanceThreshold: o.ImportanceThreshold,
		GuardMultiple:       o.GuardMultiple,
		EarlyStopPatience:   o.EarlyStopPatience,
		EarlyStopEpsilon:    o.EarlyStopEpsilon,
		Workers:             o.Workers,
		BO: bo.Config{
			RefitBudget:     o.RefitBudget,
			SparseThreshold: cli.SparseThreshold(o.Sparse, o.SparseThreshold),
			CostAware:       o.CostAware,
		},
		FidelityLadder: o.FidelityLadder,
		FidelityAxis:   o.FidelityAxis,
	}
}

// validate bounds every numeric knob; hostile specs must not smuggle
// NaN/Inf or absurd sizes into the tuner.
func (o SpecOptions) validate() error {
	ints := map[string]int{
		"generic_samples": o.GenericSamples, "tuning_samples": o.TuningSamples,
		"permute_repeats": o.PermuteRepeats, "min_selected": o.MinSelected,
		"max_selected": o.MaxSelected, "early_stop_patience": o.EarlyStopPatience,
		"workers": o.Workers, "sparse_threshold": o.SparseThreshold,
	}
	for name, v := range ints {
		if v < 0 || v > 1_000_000 {
			return fmt.Errorf("options.%s out of range: %d", name, v)
		}
	}
	floats := map[string]float64{
		"importance_threshold": o.ImportanceThreshold,
		"guard_multiple":       o.GuardMultiple,
		"early_stop_epsilon":   o.EarlyStopEpsilon,
	}
	for name, v := range floats {
		if !finite(v) || v < 0 || v > 1e9 {
			return fmt.Errorf("options.%s must be finite and in [0, 1e9], got %v", name, v)
		}
	}
	// The refit budget is a fraction of wall clock; anything at or
	// above 1 would let the surrogate monopolize the session.
	if !finite(o.RefitBudget) || o.RefitBudget < 0 || o.RefitBudget >= 1 {
		return fmt.Errorf("options.refit_budget must be finite and in [0, 1), got %v", o.RefitBudget)
	}
	if len(o.FidelityLadder) > 0 {
		if err := tuners.ValidFidelityLadder(o.FidelityLadder); err != nil {
			return fmt.Errorf("options.fidelity_ladder: %v", err)
		}
	}
	if _, err := cli.ParseFidelityAxis(o.FidelityAxis); err != nil {
		return fmt.Errorf("options.fidelity_axis: %v", err)
	}
	return nil
}

// ParsedSpec is a validated SessionSpec with its space resolved.
type ParsedSpec struct {
	Spec  SessionSpec
	Space *conf.Space
	// SpaceName is the backend name when Spec.Space named a built-in
	// space ("spark", "clustersim"); empty for inline definitions.
	SpaceName string
}

// Class maps the spec's priority onto a schedule class.
func (spec SessionSpec) Class() schedule.Class {
	if strings.EqualFold(spec.Priority, "latency") {
		return schedule.Latency
	}
	return schedule.Bulk
}

// DecodeSessionSpec parses and validates a session spec. The returned
// error is safe to surface to clients (no internal state leaks).
func DecodeSessionSpec(data []byte) (ParsedSpec, error) {
	if len(data) > MaxBodyBytes {
		return ParsedSpec{}, fmt.Errorf("body exceeds %d bytes", MaxBodyBytes)
	}
	var spec SessionSpec
	if err := decodeOne(data, &spec); err != nil {
		return ParsedSpec{}, fmt.Errorf("parse spec: %v", err)
	}
	return ValidateSessionSpec(spec)
}

// decodeOne decodes the one JSON value data holds into v, refusing
// unknown fields and anything after the value. (json.Decoder.More
// would let a stray closing '}' or ']' through.)
func decodeOne(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// ValidateSessionSpec checks an already-parsed spec and resolves its
// space. Shared by the HTTP handler and the rehydration path (which
// re-reads persisted specs from disk).
func ValidateSessionSpec(spec SessionSpec) (ParsedSpec, error) {
	if spec.Tuner == "" {
		return ParsedSpec{}, fmt.Errorf("tuner is required")
	}
	if !cli.KnownTuner(spec.Tuner) {
		return ParsedSpec{}, fmt.Errorf("unknown tuner %q", spec.Tuner)
	}
	if spec.Budget <= 0 || spec.Budget > MaxBudget {
		return ParsedSpec{}, fmt.Errorf("budget must be in [1, %d], got %d", MaxBudget, spec.Budget)
	}
	switch spec.Sync {
	case "", "always", "none":
		// ok
	default:
		return ParsedSpec{}, fmt.Errorf("sync must be \"always\" or \"none\", got %q", spec.Sync)
	}
	switch strings.ToLower(spec.Priority) {
	case "", "bulk", "latency":
		// ok
	default:
		return ParsedSpec{}, fmt.Errorf("priority must be \"bulk\" or \"latency\", got %q", spec.Priority)
	}
	if len(spec.Workload) > 256 || len(spec.Dataset) > 256 {
		return ParsedSpec{}, fmt.Errorf("workload/dataset names are capped at 256 bytes")
	}
	if err := spec.Options.validate(); err != nil {
		return ParsedSpec{}, err
	}
	space, name, err := resolveSpace(spec.Space)
	if err != nil {
		return ParsedSpec{}, err
	}
	return ParsedSpec{Spec: spec, Space: space, SpaceName: name}, nil
}

// resolveSpace turns the spec's space field into a conf.Space: a
// string names a built-in backend space ("spark" always works; any
// other name is resolved through the backend registry, so a binary
// that links the clustersim backend accepts "clustersim" too), and an
// object is parsed as an inline space definition.
func resolveSpace(raw json.RawMessage) (*conf.Space, string, error) {
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) == 0 {
		return nil, "", fmt.Errorf("space is required (\"spark\" or a space definition object)")
	}
	if trimmed[0] == '"' {
		var name string
		if err := json.Unmarshal(trimmed, &name); err != nil {
			return nil, "", fmt.Errorf("parse space name: %v", err)
		}
		// "spark" resolves without the registry, so the wire layer
		// validates identically whether or not the binary linked any
		// backend implementations.
		if strings.EqualFold(name, "spark") {
			return conf.SparkSpace(), "spark", nil
		}
		if b, err := backend.Lookup(strings.ToLower(name)); err == nil {
			return b.Space(), b.Name(), nil
		}
		return nil, "", fmt.Errorf("unknown space %q (built-in spaces: %s; send a space definition object otherwise)",
			name, strings.Join(builtinSpaces(), ", "))
	}
	space, err := conf.ParseSpace(trimmed)
	if err != nil {
		return nil, "", fmt.Errorf("invalid space definition: %v", err)
	}
	if space.Dim() > MaxSpaceDim {
		return nil, "", fmt.Errorf("space has %d parameters, cap is %d", space.Dim(), MaxSpaceDim)
	}
	return space, "", nil
}

// builtinSpaces lists the space names a string Space field may carry:
// "spark" plus every registered backend.
func builtinSpaces() []string {
	names := backend.Names()
	for _, n := range names {
		if n == "spark" {
			return names
		}
	}
	return append([]string{"spark"}, names...)
}

// ProposeRequest is the body of POST /v1/sessions/{id}/propose. An
// empty body is equivalent to {"n": 0}.
type ProposeRequest struct {
	// N is the maximum number of proposals wanted; <= 0 means "as many
	// as the tuner can usefully emit", capped at MaxBatch.
	N int `json:"n"`
	// Reclaim hands out the session's outstanding proposals, oldest
	// first, in place of new ones; only a session with none outstanding
	// proposes anew. A client whose earlier response was lost in
	// transit gets back the proposals that response carried. A client
	// sends it only while it runs none of the session's proposals.
	Reclaim bool `json:"reclaim,omitempty"`
}

// DecodeProposeRequest parses a propose body (empty means defaults).
func DecodeProposeRequest(data []byte) (ProposeRequest, error) {
	if len(bytes.TrimSpace(data)) == 0 {
		return ProposeRequest{}, nil
	}
	var req ProposeRequest
	if err := decodeOne(data, &req); err != nil {
		return ProposeRequest{}, fmt.Errorf("parse propose request: %v", err)
	}
	if req.N > MaxBatch {
		req.N = MaxBatch
	}
	return req, nil
}

// WireProposal is one trial handed to a client: the configuration (as
// a name → raw-value map), the tuner's stopping cap for the run
// (0 = none), and the fidelity the trial should run at. FidelityInput
// is the input-scale fraction, FidelityStage the stage-truncation
// fraction; 0 (omitted) means full — a multi-fidelity tuner (bohb)
// asks the client to run a proportionally scaled-down workload on its
// lower rungs, and the client must report the observation back with
// the same fidelity.
type WireProposal struct {
	Config        map[string]float64 `json:"config"`
	Cap           float64            `json:"cap,omitempty"`
	FidelityInput float64            `json:"fidelity_input,omitempty"`
	FidelityStage float64            `json:"fidelity_stage,omitempty"`
}

// ProposeResponse answers a propose call.
type ProposeResponse struct {
	Proposals []WireProposal `json:"proposals"`
	// Done is true when the tuner will never propose again.
	Done bool `json:"done"`
	// Outstanding counts proposals awaiting observation (including the
	// ones in this response).
	Outstanding int `json:"outstanding"`
}

// Observation is one evaluated trial reported back by a client.
type Observation struct {
	// Config must exactly match a previously proposed configuration.
	Config map[string]float64 `json:"config"`
	// Seconds is the observed objective value (capped execution time).
	Seconds float64 `json:"seconds"`
	// Raw is the uncapped (or consumed-before-failure) duration; it
	// defaults to Seconds when omitted.
	Raw float64 `json:"raw,omitempty"`
	// Completed is true when the run finished (Seconds is a
	// measurement, not a floor).
	Completed bool `json:"completed"`
	// OOM / Infeasible / Transient mirror backend.EvalRecord.
	OOM        bool `json:"oom,omitempty"`
	Infeasible bool `json:"infeasible,omitempty"`
	Transient  bool `json:"transient,omitempty"`
	// Skipped abandons the proposal without an observation: the tuner
	// advances past it and no evaluation is charged.
	Skipped bool `json:"skipped,omitempty"`
	// Cap echoes the stopping cap the trial actually ran under (0 =
	// none). Advisory: the server records it nowhere, but an explicit
	// echo keeps request logs self-describing.
	Cap float64 `json:"cap,omitempty"`
	// FidelityInput/FidelityStage report the fidelity the trial ran
	// at (0 = full). They must match the proposal's fidelity — the
	// incumbent only advances on full-fidelity completions, and a
	// proxy observation mislabeled as full would corrupt it.
	FidelityInput float64 `json:"fidelity_input,omitempty"`
	FidelityStage float64 `json:"fidelity_stage,omitempty"`
}

// ObserveRequest is the body of POST /v1/sessions/{id}/observe.
type ObserveRequest struct {
	Observations []Observation `json:"observations"`
	// Next, when present, asks for the next proposals in the same
	// response, once the whole batch is applied: 0 means as many as the
	// tuner can usefully emit, n up to n (capped at MaxBatch), exactly
	// as ProposeRequest.N. A closed propose/observe loop then costs one
	// request per trial.
	Next *int `json:"next,omitempty"`
}

// DecodeObserveBody parses and validates an observe body. Every
// numeric field must be finite and non-negative; configs must be
// non-empty. Matching against pending proposals happens later, under
// the session lock.
func DecodeObserveBody(data []byte) (ObserveRequest, error) {
	if len(data) > MaxBodyBytes {
		return ObserveRequest{}, fmt.Errorf("body exceeds %d bytes", MaxBodyBytes)
	}
	var req ObserveRequest
	if err := decodeOne(data, &req); err != nil {
		return ObserveRequest{}, fmt.Errorf("parse observe request: %v", err)
	}
	if len(req.Observations) == 0 {
		return ObserveRequest{}, fmt.Errorf("observations must not be empty")
	}
	if len(req.Observations) > MaxBatch {
		return ObserveRequest{}, fmt.Errorf("at most %d observations per request, got %d", MaxBatch, len(req.Observations))
	}
	if req.Next != nil {
		switch n := *req.Next; {
		case n < 0:
			return ObserveRequest{}, fmt.Errorf("next must be >= 0, got %d", n)
		case n > MaxBatch:
			*req.Next = MaxBatch
		}
	}
	for i := range req.Observations {
		o := &req.Observations[i]
		if len(o.Config) == 0 {
			return ObserveRequest{}, fmt.Errorf("observation %d: config is required", i)
		}
		for name, v := range o.Config {
			if !finite(v) {
				return ObserveRequest{}, fmt.Errorf("observation %d: config value %s is not finite", i, name)
			}
		}
		// Fidelity is validated even on skips: a skip still consumes the
		// pending proposal, and a malformed fidelity must never enter
		// the journal.
		for _, f := range [...]struct {
			name string
			v    float64
		}{{"fidelity_input", o.FidelityInput}, {"fidelity_stage", o.FidelityStage}} {
			if !finite(f.v) || f.v < 0 || f.v > 1 {
				return ObserveRequest{}, fmt.Errorf("observation %d: %s must be finite and in [0, 1], got %v", i, f.name, f.v)
			}
		}
		if o.Skipped {
			continue // no measurement to validate
		}
		if !finite(o.Seconds) || o.Seconds < 0 {
			return ObserveRequest{}, fmt.Errorf("observation %d: seconds must be finite and >= 0, got %v", i, o.Seconds)
		}
		if !finite(o.Raw) || o.Raw < 0 {
			return ObserveRequest{}, fmt.Errorf("observation %d: raw must be finite and >= 0, got %v", i, o.Raw)
		}
		if !finite(o.Cap) || o.Cap < 0 {
			return ObserveRequest{}, fmt.Errorf("observation %d: cap must be finite and >= 0, got %v", i, o.Cap)
		}
		if o.Raw == 0 {
			o.Raw = o.Seconds
		}
	}
	return req, nil
}

// ObserveResponse answers an observe call.
type ObserveResponse struct {
	// Applied counts observations accepted by this call.
	Applied int `json:"applied"`
	// Trials is the session's total observed-trial count.
	Trials int  `json:"trials"`
	Done   bool `json:"done"`
	Found  bool `json:"found"`
	// BestSeconds is the incumbent objective value (present once
	// Found).
	BestSeconds float64 `json:"best_seconds,omitempty"`
	// Proposals and Outstanding answer the request's Next, as a
	// ProposeResponse would; Done then reflects the state after the
	// proposals were made. Without Next both are absent.
	Proposals   []WireProposal `json:"proposals,omitempty"`
	Outstanding int            `json:"outstanding,omitempty"`
}

// StatusResponse answers GET /v1/sessions/{id}.
type StatusResponse struct {
	ID       string `json:"id"`
	Tuner    string `json:"tuner"`
	Tenant   string `json:"tenant,omitempty"`
	Workload string `json:"workload,omitempty"`
	Dataset  string `json:"dataset,omitempty"`
	Budget   int    `json:"budget"`
	Seed     uint64 `json:"seed"`

	Done        bool               `json:"done"`
	Found       bool               `json:"found"`
	Best        map[string]float64 `json:"best,omitempty"`
	BestSeconds float64            `json:"best_seconds,omitempty"`

	// Trials counts observed trials; Outstanding counts proposed but
	// unobserved ones; Unclaimed counts proposals regenerated by a
	// resume and not yet handed to any client.
	Trials      int `json:"trials"`
	Outstanding int `json:"outstanding"`
	Unclaimed   int `json:"unclaimed"`
	// Evals and Cost are the charged evaluation counter and the
	// accumulated cost in (client-reported) seconds.
	Evals  int     `json:"evals"`
	Cost   float64 `json:"cost"`
	Failed int     `json:"failed,omitempty"`

	// Resumed is true when the session was rehydrated from its journal
	// (after an eviction or a server restart); Diverged carries the
	// replay-divergence reason when the journal tail had to be cut.
	Resumed  bool   `json:"resumed,omitempty"`
	Diverged string `json:"diverged,omitempty"`

	// Trace is the tail (or, with ?trace=all, the whole) of observed
	// objective values; Completed and TraceProxy parallel it.
	// TraceProxy[i] is true when observation i ran at reduced fidelity
	// (its seconds measure a scaled-down workload).
	Trace      []float64 `json:"trace,omitempty"`
	Completed  []bool    `json:"trace_completed,omitempty"`
	TraceProxy []bool    `json:"trace_proxy,omitempty"`
	// TraceStart is the index of Trace[0] in the full history.
	TraceStart int `json:"trace_start"`

	CreatedUnix   int64 `json:"created_unix"`
	LastTouchUnix int64 `json:"last_touch_unix"`
}

// ResultResponse answers DELETE /v1/sessions/{id}: the sealed session
// outcome.
type ResultResponse struct {
	ID             string             `json:"id"`
	Found          bool               `json:"found"`
	Best           map[string]float64 `json:"best,omitempty"`
	BestSeconds    float64            `json:"best_seconds,omitempty"`
	Trials         int                `json:"trials"`
	Evals          int                `json:"evals"`
	Cost           float64            `json:"cost"`
	SelectedParams []string           `json:"selected_params,omitempty"`
}

// ErrorBody is the uniform error envelope.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail names the failure class and describes it.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
