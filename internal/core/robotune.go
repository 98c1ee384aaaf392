// Package core implements ROBOTune itself — the Random-FOrests and
// Bayesian-Optimization based tuner of the paper. It wires together
// the memoized-sampling state (internal/memo), the Random-Forest
// parameter selection (internal/forest), the Latin-Hypercube sampler
// (internal/sample) and the GP-Hedge Bayesian-Optimization engine
// (internal/bo), following Figure 1 and Algorithm 1:
//
//   - On a parameter-selection-cache miss, 100 generic LHS samples
//     over all 44 parameters train a Random Forest whose MDA
//     (permutation) importances — with collinear parameters permuted
//     jointly — select the high-impact parameters (≥ 0.05 drop in
//     OOB R², averaged over 10 permutations).
//   - The BO engine then searches the selected low-dimensional
//     subspace, initialized with 20 LHS tuning samples — or, for a
//     repeated workload, 16 LHS samples plus 4 Best Recent Configs
//     from the configuration memoization buffer.
//   - A guard stops imbalanced configurations at a configurable
//     multiple of the median observed execution time.
package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/backend"
	"repro/internal/bo"
	"repro/internal/conf"
	"repro/internal/forest"
	"repro/internal/mapping"
	"repro/internal/memo"
	"repro/internal/stats"
	"repro/internal/tuners"
)

// Options are the ROBOTune knobs; zero values select the paper's
// constants.
type Options struct {
	// GenericSamples is the LHS sample count for parameter selection
	// on a cache miss (paper: 100, validated in §5.5/Figure 7).
	GenericSamples int
	// TuningSamples is the size of the BO initial training set
	// (paper: 20).
	TuningSamples int
	// MemoConfigs is how many Best Recent Configs replace LHS samples
	// for repeated workloads (paper: 4, so 16 LHS + 4 memoized).
	MemoConfigs int
	// ImportanceThreshold is the minimum mean OOB-R² drop for a
	// parameter group to be selected (paper: 0.05).
	ImportanceThreshold float64
	// PermuteRepeats is the number of permutations averaged per group
	// (paper: 10).
	PermuteRepeats int
	// MinSelected pads the selection with the next-ranked groups when
	// fewer clear the threshold, keeping BO viable (default 6).
	MinSelected int
	// MaxSelected caps the subspace dimensionality (default 14,
	// keeping the GP in its comfortable regime; §3.1).
	MaxSelected int
	// GuardMultiple stops a configuration once it runs this multiple
	// of the median completed time (paper §4; default 3, ≤0 disables).
	GuardMultiple float64
	// Parallel evaluates the independent parameter-selection samples
	// on this many concurrent workers when the objective supports
	// batch evaluation (a real cluster would run them side by side).
	// <= 1 keeps everything sequential. Observations are identical to
	// the sequential order, so results do not depend on this setting.
	Parallel int
	// Workers is the compute parallelism of the tuner itself: forest
	// training, permutation importance, and the acquisition/GP
	// multistarts run on this many goroutines (0 selects GOMAXPROCS,
	// 1 forces serial). Unlike Parallel, which concerns objective
	// evaluations, Workers only affects tuner-internal math; results
	// are bit-identical for any value under the same seed.
	Workers int
	// EarlyStopPatience ends the tuning session early when the best
	// observed time has not improved by at least EarlyStopEpsilon
	// (relative) for this many consecutive BO iterations — the
	// "automated early stopping" customization of §4. 0 disables it
	// (the paper's evaluation runs the full budget).
	EarlyStopPatience int
	// EarlyStopEpsilon is the relative improvement that resets the
	// patience counter (default 0.01 when patience is enabled).
	EarlyStopEpsilon float64
	// Forest configures the selection model.
	Forest forest.Config
	// BO configures the Bayesian-Optimization engine.
	BO bo.Config
	// Mapper, when set, enables OtterTune-style workload mapping (an
	// extension; see internal/mapping): on a selection-cache miss the
	// new workload is characterized with a small probe set, and if a
	// previously tuned family's signature correlates at or above
	// MapThreshold, its parameter selection is inherited instead of
	// running the full 100-sample selection.
	Mapper *mapping.Mapper
	// MapThreshold is the minimum signature correlation for adopting
	// another family's selection (default 0.9).
	MapThreshold float64
	// RefitBudget, when > 0, switches the BO engine's hyperparameter
	// refits from the fixed every-5-observations cadence to a
	// cost-budgeted one: refit only while cumulative refit time stays
	// at or below this fraction of session wall clock (e.g. 0.2),
	// extending the cached Cholesky factor otherwise. Long sessions
	// keep a bounded surrogate overhead at the price of bit-exact
	// journal-replay reproducibility.
	RefitBudget float64
	// SparseSurrogate gates the GP's local-subset approximation: past
	// SparseThreshold observations the surrogate is fitted on the
	// points nearest the incumbent plus a uniform reservoir, bounding
	// per-iteration cost by the subset size.
	SparseSurrogate bool
	// SparseThreshold is the observation count past which the sparse
	// surrogate engages (default 512; only meaningful with
	// SparseSurrogate set).
	SparseThreshold int
	// CostAware divides positive acquisition scores by the engine's
	// predicted evaluation cost (EI-per-second): among equally
	// promising configurations the search prefers the cheaper one.
	// The BOHB multi-fidelity tuner shares the toggle via the cli.
	CostAware bool
	// FidelityLadder is the fidelity ladder for the BOHB multi-fidelity
	// tuner (see tuners.BOHB); ROBOTune itself ignores it. The cli
	// threads it here so one Options value configures whichever tuner
	// -tuner selects. nil selects the default ladder.
	FidelityLadder []float64
	// FidelityAxis selects the workload dimension the ladder scales:
	// "input" (data volumes, the default) or "stage" (stage-plan
	// prefix — usually the better proxy for iterative workloads).
	// Empty means "input". BOHB-only, like FidelityLadder.
	FidelityAxis string
}

func (o Options) withDefaults() Options {
	if o.GenericSamples <= 0 {
		o.GenericSamples = 100
	}
	if o.TuningSamples <= 0 {
		o.TuningSamples = 20
	}
	if o.MemoConfigs <= 0 {
		o.MemoConfigs = 4
	}
	if o.ImportanceThreshold <= 0 {
		o.ImportanceThreshold = 0.05
	}
	if o.PermuteRepeats <= 0 {
		o.PermuteRepeats = 10
	}
	if o.MinSelected <= 0 {
		o.MinSelected = 6
	}
	if o.MaxSelected <= 0 {
		o.MaxSelected = 14
	}
	if o.GuardMultiple == 0 {
		o.GuardMultiple = 3
	}
	if o.EarlyStopPatience > 0 && o.EarlyStopEpsilon <= 0 {
		o.EarlyStopEpsilon = 0.01
	}
	if o.MapThreshold <= 0 {
		o.MapThreshold = 0.9
	}
	if o.Forest.Trees == 0 {
		o.Forest = forest.RFDefaults()
	}
	if len(o.BO.Portfolio) == 0 && o.BO.CandidatePool == 0 {
		o.BO = bo.DefaultConfig()
	}
	if o.Forest.Workers == 0 {
		o.Forest.Workers = o.Workers
	}
	if o.BO.Workers == 0 {
		o.BO.Workers = o.Workers
	}
	// The scaling knobs live on Options (not o.BO) so they survive the
	// BO-defaulting block above; map them onto the engine config last.
	if o.RefitBudget > 0 {
		o.BO.RefitBudget = o.RefitBudget
	}
	if o.SparseSurrogate {
		o.BO.Sparse = true
		if o.SparseThreshold > 0 {
			o.BO.SparseThreshold = o.SparseThreshold
		}
	}
	if o.CostAware {
		o.BO.CostAware = true
	}
	return o
}

// ROBOTune is the tuner. It satisfies tuners.Tuner. A single value
// may run many sessions; the memo.Store carries knowledge across
// them.
type ROBOTune struct {
	store *memo.Store
	opts  Options

	// Inspection hooks populated by the most recent Run (not safe for
	// concurrent Runs): the BO engine and subspace,
	// used by the response-surface experiment (Figure 9), and the
	// selection outcome when this session ran it (nil on cache hits).
	LastEngine    *bo.Engine
	LastSubspace  *conf.Subspace
	LastSelection *Selection
}

// New builds a ROBOTune instance backed by the given memoization
// store (nil for a fresh in-memory store).
func New(store *memo.Store, opts Options) *ROBOTune {
	if store == nil {
		store = memo.NewStore()
	}
	return &ROBOTune{store: store, opts: opts.withDefaults()}
}

// Name implements tuners.Tuner.
func (*ROBOTune) Name() string { return "ROBOTune" }

// Store returns the backing memoization store.
func (r *ROBOTune) Store() *memo.Store { return r.store }

// identifiable is the optional capability ROBOTune uses to key its
// caches; backend evaluators implement it (backend.Identifiable).
type identifiable = backend.Identifiable

// Run implements tuners.Tuner: it runs parameter selection (or
// a cache hit), then the memoized-sampling + BO pipeline, spending at
// most the session budget in the tuning phase. Selection evaluations
// on a cache miss are reported separately in the Result, matching
// §5.3's cost accounting. The session supplies the robustness
// envelope: its context aborts selection sampling, the BO loop and
// batch evaluation between evaluations (the result carries the
// best-so-far), its deadline tightens the guard cap, and transient
// evaluation failures are retried per its policy. Failed observations
// reach the surrogate as censored tells, never as measurements.
//
// Run is a thin driver over the ask/tell Stepper (see stepper.go):
// prepare performs the cache check, and tuners.Drive and the session
// kernel own every evaluation, retry, journal commit and replay.
func (r *ROBOTune) Run(s *tuners.Session) tuners.Result {
	return tuners.Drive(r.prepare(s), s)
}

// Selection is the outcome of the Random-Forest parameter selection.
type Selection struct {
	// Params are the selected parameter names in descending
	// importance order, including MinSelected padding.
	Params []string
	// ThresholdParams are the parameters whose groups cleared the
	// importance threshold on their own (no padding) — the paper's
	// selection criterion, used by the Figure 7 recall experiment.
	ThresholdParams []string
	// Ranking is the full group ranking with importances.
	Ranking []GroupRank
	// OOBR2 is the forest's out-of-bag fit quality.
	OOBR2 float64
	// Samples is the number of LHS samples used.
	Samples int
	// BestSample is the best completed configuration observed while
	// collecting selection samples (zero Config if none completed);
	// ROBOTune memoizes it and uses it as the base for unselected
	// parameters, so the subspace is anchored at a viable point
	// rather than the (often catastrophic) framework default.
	BestSample  conf.Config
	BestSeconds float64
}

// GroupRank names one collinearity group and its MDA importance.
type GroupRank struct {
	Name    string
	Members []string
	Drop    float64
}

// SelectFromData runs selection on pre-collected observations (unit
// points and objective values) without charging new evaluations.
func (r *ROBOTune) SelectFromData(space *conf.Space, x [][]float64, y []float64, seed uint64) (Selection, error) {
	return r.selectFromData(space, x, y, seed)
}

func (r *ROBOTune) selectFromData(space *conf.Space, x [][]float64, y []float64, seed uint64) (Selection, error) {
	if len(x) < 10 {
		return Selection{}, fmt.Errorf("core: need >= 10 selection samples, have %d", len(x))
	}
	opts := r.opts
	fcfg := opts.Forest
	fcfg.Seed = seed ^ 0xf02e57
	// MDA importance is computed out-of-bag; selection is meaningless
	// without bootstrap, so enforce it regardless of configuration.
	fcfg.Bootstrap = true
	f := forest.Train(x, y, fcfg)

	groups := space.Groups()
	imps := f.PermutationImportance(groups, opts.PermuteRepeats, seed^0x9e247, opts.Workers)

	ranking := make([]GroupRank, len(imps))
	for i, gi := range imps {
		members := make([]string, len(gi.Group))
		for k, idx := range gi.Group {
			members[k] = space.Params()[idx].Name
		}
		ranking[i] = GroupRank{Name: space.GroupName(gi.Group), Members: members, Drop: gi.Drop}
	}
	sort.SliceStable(ranking, func(a, b int) bool { return ranking[a].Drop > ranking[b].Drop })

	var params, thresholdParams []string
	var picked int
	for _, gr := range ranking {
		clears := gr.Drop >= opts.ImportanceThreshold
		take := clears || picked < opts.MinSelected
		if !take {
			break
		}
		if len(params)+len(gr.Members) > opts.MaxSelected && picked >= opts.MinSelected {
			break
		}
		params = append(params, gr.Members...)
		if clears {
			thresholdParams = append(thresholdParams, gr.Members...)
		}
		picked++
	}
	return Selection{
		Params:          params,
		ThresholdParams: thresholdParams,
		Ranking:         ranking,
		OOBR2:           f.OOBR2(),
		Samples:         len(x),
	}, nil
}

// runTracker tracks incumbents and the top-K configurations for
// memoization.
type runTracker struct {
	best      conf.Config
	bestSec   float64
	found     bool
	trace     []float64
	completed []bool
	entries   []trackEntry
}

type trackEntry struct {
	cfg conf.Config
	sec float64
}

func (t *runTracker) observe(c conf.Config, rec backend.EvalRecord) {
	t.trace = append(t.trace, rec.Seconds)
	t.completed = append(t.completed, rec.Completed)
	if !rec.Completed {
		return
	}
	t.entries = append(t.entries, trackEntry{cfg: c, sec: rec.Seconds})
	if rec.Seconds < t.bestSec {
		t.best, t.bestSec, t.found = c, rec.Seconds, true
	}
}

// medianCompleted returns the median completed execution time, or 0
// when nothing has completed yet — the all-failed session must yield
// "guard disabled", never a NaN cap.
func (t *runTracker) medianCompleted() float64 {
	if len(t.entries) == 0 {
		return 0
	}
	xs := make([]float64, len(t.entries))
	for i, e := range t.entries {
		xs[i] = e.sec
	}
	return stats.Median(xs)
}

func (t *runTracker) topK(k int) []trackEntry {
	es := append([]trackEntry(nil), t.entries...)
	sort.SliceStable(es, func(a, b int) bool { return es[a].sec < es[b].sec })
	if len(es) > k {
		es = es[:k]
	}
	return es
}

// diverseConfigs greedily selects up to k configurations from the
// best-first candidate list, always keeping the best and then
// maximizing the minimum pairwise distance in the unit cube.
func diverseConfigs(space *conf.Space, cands []memo.SavedConfig, k int) []memo.SavedConfig {
	if len(cands) <= 1 || k <= 1 {
		if len(cands) > k {
			return cands[:k]
		}
		return cands
	}
	units := make([][]float64, len(cands))
	for i, sc := range cands {
		c, err := space.FromRaw(sc.Values)
		if err != nil {
			continue
		}
		units[i] = space.Encode(c)
	}
	chosen := []int{0}
	for len(chosen) < k && len(chosen) < len(cands) {
		bestIdx, bestDist := -1, -1.0
		for i := range cands {
			if units[i] == nil || contains(chosen, i) {
				continue
			}
			minD := math.Inf(1)
			for _, j := range chosen {
				if units[j] == nil {
					continue
				}
				var d float64
				for t := range units[i] {
					diff := units[i][t] - units[j][t]
					d += diff * diff
				}
				if d < minD {
					minD = d
				}
			}
			if minD > bestDist {
				bestDist, bestIdx = minD, i
			}
		}
		if bestIdx < 0 {
			break
		}
		chosen = append(chosen, bestIdx)
	}
	out := make([]memo.SavedConfig, 0, len(chosen))
	for _, i := range chosen {
		out = append(out, cands[i])
	}
	return out
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func withSeed(cfg bo.Config, seed uint64) bo.Config {
	cfg.Seed = seed
	return cfg
}

// Explain renders a human-readable account of the most recent Run:
// how the subspace was chosen, how the Hedge portfolio ended up
// weighted, and how the best configuration differs from the framework
// default. It reads the Last* inspection hooks, so call it
// right after Run (robotune's -explain flag does).
func (r *ROBOTune) Explain(space *conf.Space, res tuners.Result) string {
	var sb strings.Builder

	if r.LastSelection != nil {
		oob := "n/a" // undefined when every selection sample failed
		if !math.IsNaN(r.LastSelection.OOBR2) {
			oob = fmt.Sprintf("%.3f", r.LastSelection.OOBR2)
		}
		fmt.Fprintf(&sb, "parameter selection (%d samples, forest OOB R² %s):\n",
			r.LastSelection.Samples, oob)
		for i, g := range r.LastSelection.Ranking {
			if i >= 10 {
				fmt.Fprintf(&sb, "  ... %d more groups\n", len(r.LastSelection.Ranking)-i)
				break
			}
			mark := " "
			if g.Drop >= r.opts.ImportanceThreshold {
				mark = "*"
			}
			fmt.Fprintf(&sb, "  %s %-30s drop %.4f\n", mark, g.Name, g.Drop)
		}
	} else {
		sb.WriteString("parameter selection: cache hit (selection reused)\n")
	}

	if r.LastEngine != nil {
		names := r.LastEngine.PortfolioNames()
		probs := r.LastEngine.Probabilities()
		sb.WriteString("acquisition portfolio (final Hedge weights):\n")
		for i, n := range names {
			fmt.Fprintf(&sb, "  %-4s %.2f\n", n, probs[i])
		}
	}

	if r.LastEngine != nil {
		if n := r.LastEngine.JitterRetries(); n > 0 {
			fmt.Fprintf(&sb, "numerical health: %d escalating-jitter Cholesky retries across surrogate fits\n", n)
		}
		if st := r.LastEngine.RefitStats(); st.RefitBudget > 0 || st.Sparse {
			fmt.Fprintf(&sb, "surrogate cadence: %d hyper refits, %d incremental extends, %d posterior refits",
				st.HyperRefits, st.Extends, st.PosteriorRefits)
			if st.RefitBudget > 0 {
				fmt.Fprintf(&sb, " (refit time %.2fs of %.2fs elapsed, budget %.0f%%)",
					st.RefitSeconds, st.ElapsedSeconds, 100*st.RefitBudget)
			}
			sb.WriteString("\n")
			if st.Sparse {
				fmt.Fprintf(&sb, "sparse surrogate: active set %d of %d observations (incumbent-local subset + uniform reservoir)\n",
					st.ActiveSize, st.Observations)
			}
		}
	}
	if r.opts.BO.CostAware && r.LastEngine != nil {
		fmt.Fprintf(&sb, "cost-aware acquisition: positive scores divided by predicted spend (%d cost observations)\n",
			r.LastEngine.CostObservations())
	}
	if res.SurrogateFallbacks > 0 {
		fmt.Fprintf(&sb, "surrogate degraded: %d BO iterations fell back to random suggestions\n", res.SurrogateFallbacks)
	}

	if f := res.Failures; f.Failed > 0 || f.Retries > 0 || f.Skipped > 0 {
		fmt.Fprintf(&sb, "robustness: %d failed (%d OOM, %d infeasible), %d transient, %d retries (%.0f s backoff), %d skipped\n",
			f.Failed, f.OOM, f.Infeasible, f.Transient, f.Retries, f.BackoffSeconds, f.Skipped)
	}
	if res.Cancelled {
		sb.WriteString("session cancelled: result is the best-so-far at cancellation\n")
	}
	if !res.Found {
		sb.WriteString("no configuration completed within budget (Found=false)\n")
	}

	if res.Found {
		sb.WriteString("best configuration vs framework default (tuned parameters):\n")
		def := space.Default()
		for _, name := range res.SelectedParams {
			p, ok := space.Param(name)
			if !ok {
				continue
			}
			fmt.Fprintf(&sb, "  %-44s %s  (default %s)\n",
				name, p.FormatRaw(res.Best.Raw(name)), p.FormatRaw(def.Raw(name)))
		}
	}
	return sb.String()
}
