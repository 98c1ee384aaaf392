// Package experiments regenerates every table and figure of the
// paper's evaluation (§5) on the simulated cluster. Each experiment
// is a pure function of its Config (seeded, deterministic) returning
// a structured result with a Render method that prints the same rows
// or series the paper reports.
//
// Experiment index (see DESIGN.md):
//
//	Fig2ModelComparison      — Figure 2: R² of Lasso/ElasticNet/RF/ET
//	RunComparison            — shared 4-tuner × 5-workload × 3-dataset grid
//	  .Fig3 / .Fig4 / .Fig5 / .Table2 / .Fig6 — Figures 3-6, Table 2
//	  .VsDefault             — §5.2: speedups over the Spark default
//	  .Amortization          — §5.5: selection-cost amortization
//	Fig7SelectionRecall      — Figure 7: recall vs selection samples
//	Fig8SamplingBehavior     — Figure 8: cores-vs-memory sampling scatter
//	Fig9ResponseSurface      — Figure 9: GP response surface over iterations
//
// Beyond the paper: ExtendedComparison (SuccessiveHalving and CMA-ES
// baselines), Ablations, MappingExperiment, RunClusterComparison (the
// cluster-scheduler backend) and RunMultiFidelity (BOHB vs ROBOTune).
package experiments

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"repro/internal/backend"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/sample"
	"repro/internal/tuners"
)

// Config controls experiment scale. The zero value selects the
// paper's settings where affordable and a reduced-but-faithful scale
// otherwise; Full() selects the paper's exact scale.
type Config struct {
	// Seed drives all randomness.
	Seed uint64
	// Budget is the tuning budget in evaluations (paper: 100).
	Budget int
	// Repeats is the number of tuning sessions per dataset per tuner
	// (paper: 5).
	Repeats int
	// MeasureReps is how many fresh runs average the quality of each
	// final configuration.
	MeasureReps int
	// Fast reduces model sizes (forest trees, BO restarts) to keep
	// wall-clock low; the algorithms are unchanged.
	Fast bool
	// Workers is ROBOTune's compute parallelism (0 = GOMAXPROCS,
	// 1 = serial). Results are identical for any value.
	Workers int
	// Faults injects cluster misbehavior into every tuning evaluator
	// (off when zero). Quality measurement stays fault-free, so tuners
	// are still compared on the configurations' true execution times.
	Faults backend.FaultPlan
	// Retry bounds re-evaluation of transiently-failed configurations
	// per session.
	Retry tuners.RetryPolicy
	// Concurrency is the campaign width: how many (workload, tuner,
	// repeat) tuning tasks run at once (<= 1 = serial). Results are
	// identical for any value: every task owns its tuner and
	// evaluators, so concurrency changes wall-clock, never outcomes.
	Concurrency int
}

// Defaults returns the reduced scale used by the benchmarks: the
// paper's budget with a single repeat per dataset.
func Defaults() Config {
	return Config{Seed: 1, Budget: 100, Repeats: 1, MeasureReps: 3, Fast: true}
}

// Full returns the paper's evaluation scale (§5.1: budget 100, five
// repeats per dataset).
func Full() Config {
	return Config{Seed: 1, Budget: 100, Repeats: 5, MeasureReps: 5, Fast: false}
}

func (c Config) withDefaults() Config {
	if c.Budget <= 0 {
		c.Budget = 100
	}
	if c.Repeats <= 0 {
		c.Repeats = 1
	}
	if c.MeasureReps <= 0 {
		c.MeasureReps = 3
	}
	return c
}

// robotuneOptions builds the core.Options for the configured scale.
func (c Config) robotuneOptions() core.Options {
	o := core.Options{Workers: c.Workers}
	if c.Fast {
		o.GenericSamples = 100
		o.PermuteRepeats = 4
		o.Forest.Trees = 60
		o.BO.CandidatePool = 128
		o.BO.Starts = 1
		o.BO.GPRestarts = 1
	}
	return o
}

// WorkloadOrder is the fixed report order for the five workloads
// (Table 1).
var WorkloadOrder = []string{
	"PageRank", "KMeans", "ConnectedComponents", "LogisticRegression", "TeraSort",
}

// ShortName maps workload families to the paper's abbreviations.
var ShortName = map[string]string{
	"PageRank":            "PR",
	"KMeans":              "KM",
	"ConnectedComponents": "CC",
	"LogisticRegression":  "LR",
	"TeraSort":            "TS",
}

// TunerNames is the fixed report order for the four tuners.
var TunerNames = []string{"ROBOTune", "BestConfig", "Gunther", "RandomSearch"}

// Session is one tuning session's outcome.
type Session struct {
	Tuner      string
	Workload   string
	DatasetIdx int // 0..2 → D1..D3
	Repeat     int
	// Quality is the measured execution time of the tuner's final
	// configuration (averaged over fresh runs with shared seeds, so
	// tuners are compared on identical noise).
	Quality float64
	// Found is false when the tuner produced no completing config.
	Found bool
	// SearchCost is the total evaluation seconds of the tuning phase
	// (§5.3 excludes ROBOTune's one-time parameter selection).
	SearchCost float64
	// SelectionCost is ROBOTune's one-time selection cost (0 on cache
	// hits and for baselines).
	SelectionCost float64
	// Trace is the observed objective value of every tuning-phase
	// evaluation in order.
	Trace []float64
}

// Comparison holds the shared tuner grid that Figures 3-6, Table 2,
// §5.2 and §5.5 derive from.
type Comparison struct {
	Config   Config
	Sessions []Session
}

// buildTuner constructs a fresh tuner by name — the paper's four and
// the extension baselines; ROBOTune receives the given store so
// sessions within one repeat share memoization.
func (c Config) buildTuner(name string, store *memo.Store) tuners.Tuner {
	tn, err := cli.BuildTunerOpts(name, store, c.robotuneOptions())
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return tn
}

// RunComparison executes the §5 evaluation grid: every tuner tunes
// every workload's three datasets, Repeats times. Within one repeat,
// ROBOTune tunes D1 → D2 → D3 in order with a shared memoization
// store, reproducing the paper's repeated-workload setup; every
// repeat starts cold. The filter (nil = all) restricts workload
// families by name.
//
// The grid runs as a schedule.RunCampaign campaign with one task per
// (workload, tuner, repeat) triple, up to cfg.Concurrency at once; the
// sessions and every number in them are bit-identical for any
// Concurrency (the tests assert 1 vs N equality).
//
// RunComparison is the non-durable form of RunComparisonDurable: same
// grid, same results, no ledger or journals on disk. With nothing to
// record a crashed cell, it panics instead of returning a partial grid.
func RunComparison(cfg Config, filter func(workload string) bool) *Comparison {
	comp, _, _ := RunComparisonDurable(cfg, filter, "") // error-free without a ledger
	return comp
}

// pick returns the sessions matching the given tuner/workload/dataset
// (dataset -1 matches all).
func pick(sessions []Session, tuner, workload string, dataset int) []Session {
	var out []Session
	for _, s := range sessions {
		if s.Tuner == tuner && s.Workload == workload && (dataset < 0 || s.DatasetIdx == dataset) {
			out = append(out, s)
		}
	}
	return out
}

func meanOf(ss []Session, f func(Session) float64) float64 {
	if len(ss) == 0 {
		return 0
	}
	var sum float64
	for _, s := range ss {
		sum += f(s)
	}
	return sum / float64(len(ss))
}

// hashName gives a stable small hash for seed derivation.
func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h % 997
}

// table is a tiny fixed-width table renderer.
type table struct {
	sb     strings.Builder
	widths []int
}

func newTable(widths ...int) *table { return &table{widths: widths} }

func (t *table) row(label string, cells ...string) {
	cells = append([]string{label}, cells...)
	for i, c := range cells {
		w := 12
		if i < len(t.widths) {
			w = t.widths[i]
		}
		if i == 0 {
			fmt.Fprintf(&t.sb, "%-*s", w, c)
		} else {
			fmt.Fprintf(&t.sb, " %*s", w, c)
		}
	}
	t.sb.WriteByte('\n')
}

func (t *table) line() {
	total := 0
	for _, w := range t.widths {
		total += w + 1
	}
	t.sb.WriteString(strings.Repeat("-", total))
	t.sb.WriteByte('\n')
}

func (t *table) String() string { return t.sb.String() }

// seededRNG is a tiny indirection so experiment files avoid importing
// the sample package just for RNG construction.
func seededRNG(seed uint64) *rand.Rand { return sample.NewRNG(seed) }
