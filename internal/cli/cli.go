// Package cli holds the shared, testable plumbing behind the
// command-line tools: parsing parameter overrides, assembling
// configurations from files and flags, and constructing tuners by
// name.
package cli

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/backend"
	"repro/internal/bo"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/tuners"
)

// ParseRaw converts a textual parameter value ("8", "0.6", "true",
// "kryo") into the parameter's raw encoding.
func ParseRaw(p conf.Param, value string) (float64, error) {
	switch p.Kind {
	case conf.Bool:
		b, err := strconv.ParseBool(value)
		if err != nil {
			return 0, err
		}
		if b {
			return 1, nil
		}
		return 0, nil
	case conf.Categorical:
		for i, ch := range p.Choices {
			if ch == value {
				return float64(i), nil
			}
		}
		return 0, fmt.Errorf("choice %q not in %v", value, p.Choices)
	default:
		return strconv.ParseFloat(value, 64)
	}
}

// ParseSet splits a "name=value" override.
func ParseSet(v string) (name, value string, err error) {
	name, value, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return "", "", fmt.Errorf("want name=value, got %q", v)
	}
	return name, value, nil
}

// ApplySets layers name=value overrides onto a configuration.
func ApplySets(space *conf.Space, c conf.Config, sets map[string]string) (conf.Config, error) {
	for name, value := range sets {
		p, ok := space.Param(name)
		if !ok {
			return conf.Config{}, fmt.Errorf("unknown parameter %q", name)
		}
		raw, err := ParseRaw(p, value)
		if err != nil {
			return conf.Config{}, fmt.Errorf("%s: %w", name, err)
		}
		c = c.With(name, raw)
	}
	return c, nil
}

// LoadConfigValues reads a JSON {name: rawValue} file (the format the
// memo store and session traces use) into a Config.
func LoadConfigValues(space *conf.Space, path string) (conf.Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return conf.Config{}, err
	}
	var values map[string]float64
	if err := json.Unmarshal(data, &values); err != nil {
		return conf.Config{}, fmt.Errorf("parse %s: %w", path, err)
	}
	return space.FromRaw(values)
}

// SaveConfigValues writes a Config as the JSON {name: rawValue} file
// LoadConfigValues reads.
func SaveConfigValues(c conf.Config, path string) error {
	data, err := json.MarshalIndent(c.ToMap(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tunerTable is the one list of tuner kinds: each entry's canonical
// lower-case name, then the aliases it also answers to, and how to
// build it. Only ROBOTune takes the store, and only ROBOTune and BOHB
// read opts.
var tunerTable = []struct {
	names []string
	build func(store *memo.Store, opts core.Options) (tuners.Tuner, error)
}{
	{[]string{"robotune"}, func(store *memo.Store, opts core.Options) (tuners.Tuner, error) {
		return core.New(store, opts), nil
	}},
	{[]string{"bestconfig"}, baseline(tuners.BestConfig{})},
	{[]string{"gunther"}, baseline(tuners.Gunther{})},
	{[]string{"randomsearch", "rs", "random"}, baseline(tuners.RandomSearch{})},
	{[]string{"successivehalving", "sha"}, baseline(tuners.SuccessiveHalving{})},
	{[]string{"cmaes", "cma-es"}, baseline(tuners.CMAES{})},
	{[]string{"bohb"}, func(_ *memo.Store, opts core.Options) (tuners.Tuner, error) {
		return buildBOHB(opts)
	}},
}

// baseline builds a tuner that needs neither the store nor opts.
func baseline(tn tuners.Tuner) func(*memo.Store, core.Options) (tuners.Tuner, error) {
	return func(*memo.Store, core.Options) (tuners.Tuner, error) { return tn, nil }
}

// TunerKinds lists the canonical tuner names BuildTunerOpts and
// BuildStepper accept, for flag help and error messages.
func TunerKinds() []string {
	kinds := make([]string, len(tunerTable))
	for i, e := range tunerTable {
		kinds[i] = e.names[0]
	}
	return kinds
}

// KnownTuner reports whether name (case-insensitive) is a tuner kind or
// one of its aliases.
func KnownTuner(name string) bool {
	_, ok := lookupTuner(name)
	return ok
}

// lookupTuner returns the tunerTable index of a case-insensitive name
// or alias.
func lookupTuner(name string) (int, bool) {
	name = strings.ToLower(name)
	for i, e := range tunerTable {
		for _, n := range e.names {
			if n == name {
				return i, true
			}
		}
	}
	return 0, false
}

// BuildTunerOpts constructs a tuner by (case-insensitive) name or
// alias. ROBOTune is backed by the given store (nil for in-memory) and
// configured by opts; opts.Workers runs its internal math on that many
// goroutines (0 = GOMAXPROCS, 1 = serial; results are identical either
// way). BOHB takes its ladder, axis and engine config (opts.BO) from
// opts; the other baselines ignore it. Every tuner runs under a
// tuners.Session, so callers can attach a context, deadline and retry
// policy via tuners.NewSession.
func BuildTunerOpts(name string, store *memo.Store, opts core.Options) (tuners.Tuner, error) {
	i, ok := lookupTuner(name)
	if !ok {
		return nil, fmt.Errorf("unknown tuner %q (have %s)", name, strings.Join(TunerKinds(), ", "))
	}
	return tunerTable[i].build(store, opts)
}

// buildBOHB maps the shared Options onto the multi-fidelity tuner:
// the fidelity ladder and axis come straight from Options, BOHB's
// engine takes Options.BO as ROBOTune's does (so the refit budget, the
// sparse threshold and the cost-aware toggle reach both), Parallel
// becomes the rung-wave worker count, and Workers drives the engine's
// internal math like everywhere else.
func buildBOHB(opts core.Options) (tuners.BOHB, error) {
	if opts.FidelityLadder != nil {
		if err := tuners.ValidFidelityLadder(opts.FidelityLadder); err != nil {
			return tuners.BOHB{}, fmt.Errorf("fidelity ladder: %w", err)
		}
	}
	axis, err := ParseFidelityAxis(opts.FidelityAxis)
	if err != nil {
		return tuners.BOHB{}, err
	}
	bocfg := opts.BO
	if bocfg.Workers == 0 {
		bocfg.Workers = opts.Workers
	}
	return tuners.BOHB{Ladder: opts.FidelityLadder, Axis: axis, BO: bocfg, Workers: opts.Parallel}, nil
}

// SparseThreshold maps the sparse-surrogate switch and its threshold
// (robotune -sparse and -sparse-threshold, the wire's options.sparse
// and options.sparse_threshold) onto bo.Config.SparseThreshold: 0
// while the switch is off, otherwise the threshold, or
// bo.DefaultSparseThreshold when it is 0.
func SparseThreshold(sparse bool, threshold int) int {
	switch {
	case !sparse:
		return 0
	case threshold <= 0:
		return bo.DefaultSparseThreshold
	}
	return threshold
}

// ParseFidelityAxis maps the textual fidelity axis ("", "input",
// "stage") onto the tuner constant.
func ParseFidelityAxis(s string) (tuners.FidelityAxis, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "input":
		return tuners.AxisInput, nil
	case "stage":
		return tuners.AxisStage, nil
	}
	return tuners.AxisInput, fmt.Errorf("fidelity axis %q: want \"input\" or \"stage\"", s)
}

// ParseFidelityLadder parses a comma-separated fidelity ladder —
// ascending input-scale fractions ending at 1, e.g. "0.111,0.333,1"
// — and validates it. "" returns nil (the tuner's default ladder).
func ParseFidelityLadder(spec string) ([]float64, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("fidelity ladder: bad rung %q", p)
		}
		out = append(out, v)
	}
	if err := tuners.ValidFidelityLadder(out); err != nil {
		return nil, err
	}
	return out, nil
}

// BuildStepper constructs the ask/tell (externally driven) form of a
// tuner by name — the factory behind the robotuned wire server, where
// every session is a stepper fed observations from remote clients.
// It builds the tuner through BuildTunerOpts, so it accepts the same
// names and applies opts the same way. Each call builds an isolated
// tuner (ROBOTune gets a private memo store), so two sessions never
// couple through shared selection caches — a rehydrated session must
// re-derive exactly what the original did.
func BuildStepper(name string, space *conf.Space, budget int, seed uint64, workload, dataset string, opts core.Options) (tuners.Stepper, error) {
	tn, err := BuildTunerOpts(name, nil, opts)
	if err != nil {
		return nil, err
	}
	if rt, ok := tn.(*core.ROBOTune); ok {
		return rt.Stepper(space, budget, seed, workload, dataset), nil
	}
	return tn.(interface {
		Stepper(space *conf.Space, budget int, seed uint64) tuners.Stepper
	}).Stepper(space, budget, seed), nil
}

// ParseFaultPlan parses a fault-injection spec of the form
//
//	execloss=0.1,straggler=0.08,stragglerfactor=3,transient=0.12,oom=0.04,seed=7
//
// Fields may appear in any order and default to zero (seed defaults
// to 1 when any probability is set, so the plan is active).
// Probabilities must lie in [0, 1] and every value must be finite; a
// straggler factor <= 1 reads as the default of 3. The keyword
// "default" (alone or as a leading field) starts from
// backend.DefaultFaultPlan(); "" and "off" return the zero plan.
func ParseFaultPlan(spec string) (backend.FaultPlan, error) {
	var plan backend.FaultPlan
	spec = strings.TrimSpace(spec)
	if spec == "" || strings.EqualFold(spec, "off") || strings.EqualFold(spec, "none") {
		return plan, nil
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		if strings.EqualFold(field, "default") {
			plan = backend.DefaultFaultPlan()
			continue
		}
		name, value, ok := strings.Cut(field, "=")
		if !ok {
			return backend.FaultPlan{}, fmt.Errorf("fault plan: want name=value, got %q", field)
		}
		name = strings.ToLower(strings.TrimSpace(name))
		value = strings.TrimSpace(value)
		if name == "seed" {
			seed, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				return backend.FaultPlan{}, fmt.Errorf("fault plan: seed: %w", err)
			}
			plan.Seed = seed
			continue
		}
		f, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return backend.FaultPlan{}, fmt.Errorf("fault plan: %s: %w", name, err)
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return backend.FaultPlan{}, fmt.Errorf("fault plan: %s must be finite, got %v", name, f)
		}
		var prob *float64
		switch name {
		case "execloss", "executorloss":
			prob = &plan.ExecutorLossProb
		case "straggler":
			prob = &plan.StragglerProb
		case "stragglerfactor":
			plan.StragglerFactor = f
		case "transient":
			prob = &plan.TransientErrProb
		case "oom":
			prob = &plan.SpuriousOOMProb
		default:
			return backend.FaultPlan{}, fmt.Errorf("fault plan: unknown field %q (have execloss, straggler, stragglerfactor, transient, oom, seed)", name)
		}
		if prob != nil {
			if f < 0 || f > 1 {
				return backend.FaultPlan{}, fmt.Errorf("fault plan: %s is a probability in [0, 1], got %v", name, f)
			}
			*prob = f
		}
	}
	if plan.Enabled() && plan.Seed == 0 {
		plan.Seed = 1
	}
	return plan, nil
}

// ExitCode maps a tuning result to a process exit status: 0 when a
// completing configuration was found, 1 otherwise. Scripts drive the
// CLI tools with this contract — a tuner that exhausts its budget
// without one completing run is a failure, even though the process
// itself ran fine.
func ExitCode(res tuners.Result) int {
	if res.Found {
		return 0
	}
	return 1
}
