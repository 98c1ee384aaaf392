package experiments

import (
	"fmt"
	"math"

	"repro/internal/backend"
	"repro/internal/bo"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/gp"
	"repro/internal/sample"
	"repro/internal/tuners"
)

// AblationResult collects the design-choice ablations of DESIGN.md in
// one table: each row switches off (or replaces) one ROBOTune design
// decision and reports the effect.
type AblationResult struct {
	Rows []AblationRow
}

// AblationRow is one ablation outcome.
type AblationRow struct {
	Name string
	// Metric and Baseline are the compared quantity (meaning depends
	// on the ablation; see Detail).
	Metric, Baseline float64
	// Detail explains what was measured.
	Detail string
}

// Ablations runs the design-choice ablation suite on a fixed tuning
// problem (TeraSort-30GB, the most IO-shaped workload). Budgets stay
// small — the point is direction, not precision.
func Ablations(cfg Config) AblationResult {
	cfg = cfg.withDefaults()
	space := sparkSpace()
	w := scaledWorkload("TeraSort", 30)
	budget := cfg.Budget / 2
	if budget < 30 {
		budget = 30
	}

	newEval := func(seed uint64) sparkEval {
		return newSparkEval(w, seed, backend.FaultPlan{})
	}
	baseOpts := func() core.Options {
		o := cfg.robotuneOptions()
		o.GenericSamples = 80
		o.PermuteRepeats = 3
		return o
	}
	quality := func(opts core.Options, seed uint64) float64 {
		rt := core.New(nil, opts)
		ev := newEval(seed)
		res := rt.Run(tuners.NewSession(ev, space, tuners.Request{Budget: budget, Seed: seed}))
		if !res.Found {
			return 480
		}
		return ev.Measure(res.Best, cfg.MeasureReps, seed*13+1)
	}
	meanQuality := func(opts core.Options) float64 {
		var s float64
		const reps = 2
		for r := uint64(0); r < reps; r++ {
			s += quality(opts, 40+r)
		}
		return s / reps
	}

	var rows []AblationRow

	// 1. GP-Hedge portfolio vs the single EI acquisition.
	hedge := meanQuality(baseOpts())
	eiOnly := baseOpts()
	eiOnly.BO.Portfolio = []bo.Acquisition{bo.EI{Xi: 0.01}}
	rows = append(rows, AblationRow{
		Name: "GP-Hedge vs EI-only", Metric: hedge, Baseline: meanQuality(eiOnly),
		Detail: "best config quality (s); hedge should track the best single acquisition",
	})

	// 2. Guard on vs off: search cost.
	cost := func(guard float64, seed uint64) float64 {
		opts := baseOpts()
		opts.GuardMultiple = guard
		rt := core.New(nil, opts)
		ev := newEval(seed)
		res := rt.Run(tuners.NewSession(ev, space, tuners.Request{Budget: budget, Seed: seed}))
		return res.SearchCost
	}
	rows = append(rows, AblationRow{
		Name: "guard on vs off", Metric: cost(2, 44), Baseline: cost(-1, 44),
		Detail: "tuning-phase search cost (s); the guard kills bad runs early",
	})

	// 3. Selection vs raw 44-dim BO (quality under equal budget).
	sel := meanQuality(baseOpts())
	raw := rawBOQuality(cfg, space, newEval(46), budget, 46)
	rows = append(rows, AblationRow{
		Name: "RF selection vs raw 44-dim BO", Metric: sel, Baseline: raw,
		Detail: "best config quality (s); dimension reduction is §3.1's premise",
	})

	// 4. LHS vs uniform initial design: GP held-out error.
	lhsMSE, uniMSE := initDesignMSE(space, newEval(47))
	rows = append(rows, AblationRow{
		Name: "LHS vs uniform init", Metric: lhsMSE, Baseline: uniMSE,
		Detail: "GP held-out MSE from 20-point initial designs (averaged over seeds)",
	})

	return AblationResult{Rows: rows}
}

// rawBOQuality runs plain BO over all 44 dimensions.
func rawBOQuality(cfg Config, space *conf.Space, ev sparkEval, budget int, seed uint64) float64 {
	engine := bo.New(space.Dim(), bo.Config{Seed: seed, CandidatePool: 128, Starts: 1, GPRestarts: 1})
	rng := sample.NewRNG(seed)
	best := math.Inf(1)
	var bestCfg conf.Config
	note := func(rec backend.EvalRecord) {
		if rec.Completed && rec.Seconds < best {
			best, bestCfg = rec.Seconds, rec.Config
		}
	}
	init := budget / 3
	if init < 10 {
		init = 10
	}
	for _, u := range sample.LHS(init, space.Dim(), rng) {
		rec := ev.EvaluateSpec(space.Decode(u), backend.EvalSpec{})
		engine.Tell(u, math.Log(rec.Seconds))
		note(rec)
	}
	for k := init; k < budget; k++ {
		u, err := engine.Suggest()
		if err != nil {
			break
		}
		rec := ev.EvaluateSpec(space.Decode(u), backend.EvalSpec{})
		engine.Tell(u, math.Log(rec.Seconds))
		note(rec)
	}
	if !bestCfg.Valid() {
		return 480
	}
	return ev.Measure(bestCfg, cfg.MeasureReps, seed*13+1)
}

// initDesignMSE fits GPs on LHS vs uniform 20-point designs over a
// fixed subspace and compares held-out prediction error.
func initDesignMSE(space *conf.Space, ev sparkEval) (lhs, uniform float64) {
	sub, err := space.Sub([]string{
		conf.ExecutorCores, conf.ExecutorMemory, conf.ExecutorInstances,
		conf.DefaultParallelism, conf.MemoryFraction,
	}, space.Default().With(conf.ExecutorMemory, 32768))
	if err != nil {
		return math.NaN(), math.NaN()
	}
	score := func(design sample.Design, seed uint64) float64 {
		y := make([]float64, len(design))
		for i, u := range design {
			y[i] = ev.EvaluateSpec(sub.Decode(u), backend.EvalSpec{}).Seconds
		}
		gcfg := gp.DefaultConfig()
		gcfg.Restarts = 1
		gcfg.Seed = seed
		g, err := gp.Fit(design, y, gcfg)
		if err != nil {
			return math.Inf(1)
		}
		probes := sample.LHS(30, sub.Dim(), sample.NewRNG(991))
		var mse float64
		for _, u := range probes {
			mu, _ := g.Predict(u)
			d := mu - ev.EvaluateSpec(sub.Decode(u), backend.EvalSpec{}).Seconds
			mse += d * d
		}
		return mse / float64(len(probes))
	}
	const seeds = 4
	for s := uint64(0); s < seeds; s++ {
		lhs += score(sample.LHS(20, sub.Dim(), sample.NewRNG(s+5)), s)
		uniform += score(sample.Uniform(20, sub.Dim(), sample.NewRNG(s+5)), s)
	}
	return lhs / seeds, uniform / seeds
}

// Render prints the ablation table.
func (a AblationResult) Render() string {
	t := newTable(32, 12, 12, 8)
	t.row("ablation", "with", "without", "ratio")
	t.line()
	for _, r := range a.Rows {
		ratio := r.Baseline / r.Metric
		t.row(r.Name,
			fmt.Sprintf("%.1f", r.Metric),
			fmt.Sprintf("%.1f", r.Baseline),
			fmt.Sprintf("%.2fx", ratio))
	}
	out := "Design-choice ablations (with = ROBOTune's choice; ratio > 1 favors it)\n" + t.String()
	for _, r := range a.Rows {
		out += fmt.Sprintf("  %-32s %s\n", r.Name+":", r.Detail)
	}
	return out
}
