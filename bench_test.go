// Benchmark harness: one benchmark per table and figure of the
// paper's evaluation (§5), plus ablation benchmarks for the design
// choices called out in DESIGN.md and micro benchmarks for the
// numerical substrates.
//
// The figure/table benchmarks run reduced-but-faithful scales so the
// whole suite stays in minutes; `go run ./cmd/robobench -full` runs
// the paper-scale versions. Each benchmark reports the experiment's
// headline quantity via b.ReportMetric, so the regenerated "rows" are
// visible in benchmark output.
package repro

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/bo"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/forest"
	"repro/internal/gp"
	"repro/internal/linalg"
	"repro/internal/memo"
	"repro/internal/optimize"
	"repro/internal/sample"
	"repro/internal/sparksim"
	"repro/internal/tuners"
)

// benchConfig is the reduced scale shared by the figure benchmarks.
func benchConfig() experiments.Config {
	return experiments.Config{Seed: 1, Budget: 60, Repeats: 1, MeasureReps: 2, Fast: true}
}

// --- Figure/Table benchmarks -------------------------------------------------

// BenchmarkFig2ModelR2 regenerates Figure 2 (R² of the four
// importance models) and reports RandomForest's mean R² advantage
// over the best linear model.
func BenchmarkFig2ModelR2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig2ModelComparison(benchConfig(), 120)
		var rfSum, linSum float64
		for _, label := range res.Labels {
			rfSum += res.Scores[label]["RandomForest"]
			linSum += math.Max(res.Scores[label]["Lasso"], res.Scores[label]["ElasticNet"])
		}
		n := float64(len(res.Labels))
		b.ReportMetric(rfSum/n, "rf-r2")
		b.ReportMetric(linSum/n, "linear-r2")
	}
}

// BenchmarkFig3TunerQuality regenerates Figure 3 (best execution time
// scaled to Random Search) on the full workload grid and reports
// ROBOTune's mean advantage over BestConfig.
func BenchmarkFig3TunerQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		comp := experiments.RunComparison(benchConfig(), nil)
		rows := comp.Fig3()
		mean, max := experiments.SummarizeScaled(rows, "BestConfig")
		b.ReportMetric(mean, "adv-vs-bestconfig")
		b.ReportMetric(max, "max-adv")
	}
}

// BenchmarkFig4SearchCost regenerates Figure 4 (search cost scaled to
// Random Search) and reports ROBOTune's mean cost advantage over
// Random Search.
func BenchmarkFig4SearchCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		comp := experiments.RunComparison(benchConfig(),
			func(w string) bool { return w == "PageRank" || w == "KMeans" || w == "TeraSort" })
		rows := comp.Fig4()
		mean, _ := experiments.SummarizeScaled(rows, "RandomSearch")
		b.ReportMetric(mean, "cost-adv-vs-rs")
	}
}

// BenchmarkFig5Distribution regenerates Figure 5 (execution-time
// distribution of sampled configurations for PR and KM) and reports
// the median ratio of Random Search to ROBOTune for KMeans.
func BenchmarkFig5Distribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		comp := experiments.RunComparison(benchConfig(),
			func(w string) bool { return w == "PageRank" || w == "KMeans" })
		km := comp.Fig5("KMeans")
		b.ReportMetric(km.Summary["RandomSearch"].P50/km.Summary["ROBOTune"].P50, "km-p50-ratio")
		pr := comp.Fig5("PageRank")
		b.ReportMetric(pr.Summary["RandomSearch"].P50/pr.Summary["ROBOTune"].P50, "pr-p50-ratio")
	}
}

// BenchmarkTable2SearchSpeed regenerates Table 2 (iterations to reach
// within 1/5/10% of the best achieved time) and reports the mean
// within-5% iteration across workloads.
func BenchmarkTable2SearchSpeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		comp := experiments.RunComparison(benchConfig(), nil)
		rows := comp.Table2()
		var w5 float64
		for _, r := range rows {
			w5 += r.Within5
		}
		b.ReportMetric(w5/float64(len(rows)), "mean-within5-iter")
	}
}

// BenchmarkFig6Memoization regenerates Figure 6 (per-iteration
// minimum for PR-D1 vs PR-D3) and reports the within-5% iteration for
// both: memoized D3 sessions should converge earlier than cold D1.
func BenchmarkFig6Memoization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		comp := experiments.RunComparison(benchConfig(),
			func(w string) bool { return w == "PageRank" })
		f6 := comp.Fig6("PageRank")
		b.ReportMetric(f6.IterWithin5["D1"], "d1-within5-iter")
		b.ReportMetric(f6.IterWithin5["D3"], "d3-within5-iter")
	}
}

// BenchmarkFig7Recall regenerates Figure 7 (selection recall vs
// sample count) and reports recall at 100 samples (the paper's
// chosen operating point, where recall should still be high).
func BenchmarkFig7Recall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig7SelectionRecall(benchConfig(), []int{150, 100, 50, 25})
		var at100 float64
		var n int
		for _, recs := range res.Recall {
			at100 += recs[1]
			n++
		}
		b.ReportMetric(at100/float64(n), "recall-at-100")
	}
}

// BenchmarkFig8Sampling regenerates Figure 8 (sampling behavior in
// the cores-vs-memory plane) and reports a clustering statistic:
// ROBOTune's mean nearest-neighbor distance relative to Random
// Search's (exploitation concentrates samples, so < 1).
func BenchmarkFig8Sampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig8SamplingBehavior(benchConfig())
		rt := meanNearestNeighbor(res.Points["ROBOTune"])
		rs := meanNearestNeighbor(res.Points["RandomSearch"])
		b.ReportMetric(rt/rs, "rt-vs-rs-nn-dist")
	}
}

func meanNearestNeighbor(pts [][2]float64) float64 {
	if len(pts) < 2 {
		return 0
	}
	var sum float64
	for i, p := range pts {
		best := math.Inf(1)
		for j, q := range pts {
			if i == j {
				continue
			}
			// Normalize: cores 1-32, memory log-scaled.
			dc := (p[0] - q[0]) / 32
			dm := (math.Log(p[1]) - math.Log(q[1])) / math.Log(184320.0/8192)
			if d := dc*dc + dm*dm; d < best {
				best = d
			}
		}
		sum += math.Sqrt(best)
	}
	return sum / float64(len(pts))
}

// BenchmarkFig9Surface regenerates Figure 9 (GP response surface at
// increasing iterations) and reports the surface range (max-min) at
// the final snapshot — a fitted surface discriminates regions.
func BenchmarkFig9Surface(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig9ResponseSurface(benchConfig(), []int{25, 60}, 10)
		last := res.Surfaces[len(res.Surfaces)-1]
		if last == nil {
			b.ReportMetric(0, "surface-range-s")
			continue
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, row := range last {
			for _, v := range row {
				lo = math.Min(lo, v)
				hi = math.Max(hi, v)
			}
		}
		b.ReportMetric(hi-lo, "surface-range-s")
	}
}

// BenchmarkDefaultComparison regenerates the §5.2 default-vs-tuned
// comparison and reports the KMeans mean speedup (the paper's 27.1x
// headline; the simulator reproduces the order of magnitude).
func BenchmarkDefaultComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.DefaultComparison(benchConfig())
		var km float64
		var n int
		for _, r := range rows {
			if r.Workload == "KMeans" && !math.IsNaN(r.Speedup) {
				km += r.Speedup
				n++
			}
		}
		if n > 0 {
			b.ReportMetric(km/float64(n), "km-speedup")
		}
	}
}

// --- Ablation benchmarks -----------------------------------------------------

// tsObjective builds a fresh TeraSort evaluator for ablation runs.
func tsObjective(seed uint64) *sparksim.Evaluator {
	return sparksim.NewEvaluator(sparksim.PaperCluster(), sparksim.TeraSort(30), seed, 480)
}

// fastCoreOptions are reduced-scale ROBOTune options for ablations.
func fastCoreOptions() core.Options {
	o := core.Options{GenericSamples: 80, PermuteRepeats: 3}
	return o
}

// BenchmarkAblationHedge compares the GP-Hedge portfolio against each
// single acquisition function on a fixed tuning problem, reporting
// the best value found by each (lower is better). The portfolio
// should track the best individual function (§3.4).
func BenchmarkAblationHedge(b *testing.B) {
	run := func(portfolio []bo.Acquisition, seed uint64) float64 {
		opts := core.Options{GenericSamples: 80, PermuteRepeats: 3}
		opts.BO = bo.DefaultConfig()
		opts.BO.Portfolio = portfolio
		opts.BO.CandidatePool = 128
		opts.BO.Starts = 1
		opts.BO.GP.Restarts = 1
		rt := core.New(nil, opts)
		ev := tsObjective(seed)
		res := rt.Tune(ev, conf.SparkSpace(), 50, seed)
		if !res.Found {
			return 480
		}
		return ev.Measure(res.Best, 3, seed*13+1)
	}
	for i := 0; i < b.N; i++ {
		var hedge, pi, ei, lcb float64
		const reps = 3
		for s := uint64(0); s < reps; s++ {
			hedge += run(bo.DefaultPortfolio(), 40+s)
			pi += run([]bo.Acquisition{bo.PI{Xi: 0.01}}, 40+s)
			ei += run([]bo.Acquisition{bo.EI{Xi: 0.01}}, 40+s)
			lcb += run([]bo.Acquisition{bo.LCB{Kappa: 1.96}}, 40+s)
		}
		b.ReportMetric(hedge/reps, "hedge-best-s")
		b.ReportMetric(pi/reps, "pi-best-s")
		b.ReportMetric(ei/reps, "ei-best-s")
		b.ReportMetric(lcb/reps, "lcb-best-s")
	}
}

// BenchmarkAblationLHS compares LHS against plain uniform random
// initialization of the BO training set by fitting GPs on both and
// comparing predictive quality on held-out configurations.
func BenchmarkAblationLHS(b *testing.B) {
	space := conf.SparkSpace()
	sub, err := space.Sub([]string{
		conf.ExecutorCores, conf.ExecutorMemory, conf.ExecutorInstances,
		conf.DefaultParallelism, conf.MemoryFraction,
	}, space.Default().With(conf.ExecutorMemory, 32768))
	if err != nil {
		b.Fatal(err)
	}
	ev := tsObjective(3)
	evalAt := func(u []float64) float64 { return ev.EvaluateSpec(sub.Decode(u), sparksim.EvalSpec{}).Seconds }
	fitAndScore := func(design sample.Design, seed uint64) float64 {
		y := make([]float64, len(design))
		for i, u := range design {
			y[i] = evalAt(u)
		}
		cfg := gp.DefaultConfig()
		cfg.Restarts = 1
		cfg.Seed = seed
		g, err := gp.Fit(design, y, cfg)
		if err != nil {
			return math.Inf(1)
		}
		// Held-out MSE over a fixed probe set.
		probes := sample.LHS(40, sub.Dim(), sample.NewRNG(999))
		var mse float64
		for _, u := range probes {
			mu, _ := g.Predict(u)
			d := mu - evalAt(u)
			mse += d * d
		}
		return mse / 40
	}
	for i := 0; i < b.N; i++ {
		var lhs, uni, hal float64
		const seeds = 6
		for s := uint64(0); s < seeds; s++ {
			lhs += fitAndScore(sample.LHS(20, sub.Dim(), sample.NewRNG(s+5)), s)
			uni += fitAndScore(sample.Uniform(20, sub.Dim(), sample.NewRNG(s+5)), s)
			hal += fitAndScore(sample.Halton(20, sub.Dim(), sample.NewRNG(s+5)), s)
		}
		b.ReportMetric(lhs/seeds, "lhs-mse")
		b.ReportMetric(uni/seeds, "uniform-mse")
		b.ReportMetric(hal/seeds, "halton-mse")
	}
}

// BenchmarkAblationSelection compares BO over the RF-selected
// subspace against BO over all 44 raw dimensions with the same
// budget, reporting the best found by each. Dimension reduction is
// the paper's answer to BO's high-dimensional weakness (§3.1).
func BenchmarkAblationSelection(b *testing.B) {
	space := conf.SparkSpace()
	runPair := func(seed uint64) (sel, full float64) {
		// With selection (standard ROBOTune).
		opts := core.Options{GenericSamples: 80, PermuteRepeats: 3}
		opts.BO = bo.DefaultConfig()
		opts.BO.CandidatePool = 128
		opts.BO.Starts = 1
		opts.BO.GP.Restarts = 1
		rt := core.New(nil, opts)
		ev := tsObjective(seed)
		res := rt.Tune(ev, space, 50, seed)
		sel = 480.0
		if res.Found {
			sel = ev.Measure(res.Best, 3, 77)
		}

		// Without selection: plain BO over all 44 dims.
		engine := bo.New(space.Dim(), func() bo.Config {
			c := bo.DefaultConfig()
			c.Seed = seed
			c.CandidatePool = 128
			c.Starts = 1
			c.GP.Restarts = 1
			return c
		}())
		ev2 := tsObjective(seed)
		rng := sample.NewRNG(seed)
		bestFull := math.Inf(1)
		var bestCfg conf.Config
		for _, u := range sample.LHS(20, space.Dim(), rng) {
			rec := ev2.EvaluateSpec(space.Decode(u), sparksim.EvalSpec{})
			engine.Tell(u, math.Log(rec.Seconds))
			if rec.Completed && rec.Seconds < bestFull {
				bestFull, bestCfg = rec.Seconds, rec.Config
			}
		}
		for k := 0; k < 30; k++ {
			u, err := engine.Suggest()
			if err != nil {
				break
			}
			rec := ev2.EvaluateSpec(space.Decode(u), sparksim.EvalSpec{})
			engine.Tell(u, math.Log(rec.Seconds))
			if rec.Completed && rec.Seconds < bestFull {
				bestFull, bestCfg = rec.Seconds, rec.Config
			}
		}
		full = 480.0
		if bestCfg.Valid() {
			full = ev2.Measure(bestCfg, 3, 77)
		}
		return sel, full
	}
	for i := 0; i < b.N; i++ {
		var selSum, fullSum float64
		const seeds = 2
		for s := uint64(0); s < seeds; s++ {
			sel, full := runPair(11 + s*7)
			selSum += sel
			fullSum += full
		}
		b.ReportMetric(selSum/seeds, "with-selection-s")
		b.ReportMetric(fullSum/seeds, "raw-44dim-s")
	}
}

// BenchmarkAblationMDIvsMDA compares the conventional MDI importance
// against the paper's MDA (permutation) choice by checking how many
// of the top-5 MDA groups MDI agrees on for a PageRank sample set.
func BenchmarkAblationMDIvsMDA(b *testing.B) {
	space := conf.SparkSpace()
	ev := sparksim.NewEvaluator(sparksim.PaperCluster(), sparksim.PageRank(10), 21, 480)
	design := sample.LHS(100, space.Dim(), sample.NewRNG(21))
	x := make([][]float64, len(design))
	y := make([]float64, len(design))
	for i, u := range design {
		x[i] = u
		y[i] = ev.EvaluateSpec(space.Decode(u), sparksim.EvalSpec{}).Seconds
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := forest.RFDefaults()
		cfg.Trees = 60
		cfg.Seed = 21
		f := forest.Train(x, y, cfg)
		groups := space.Groups()
		mda := f.PermutationImportance(groups, 3, 22, 0)
		mdi := f.MDIImportance()
		// Aggregate MDI per group for comparability.
		mdiGroup := make([]float64, len(groups))
		for gi, g := range groups {
			for _, idx := range g {
				mdiGroup[gi] += mdi[idx]
			}
		}
		agree := topKOverlap(importanceOrder(mda), order(mdiGroup), 5)
		b.ReportMetric(float64(agree), "top5-agreement")
	}
}

func importanceOrder(imps []forest.GroupImportance) []int {
	vals := make([]float64, len(imps))
	for i, im := range imps {
		vals[i] = im.Drop
	}
	return order(vals)
}

func order(vals []float64) []int {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < len(idx); i++ {
		for j := i + 1; j < len(idx); j++ {
			if vals[idx[j]] > vals[idx[i]] {
				idx[i], idx[j] = idx[j], idx[i]
			}
		}
	}
	return idx
}

func topKOverlap(a, bb []int, k int) int {
	set := map[int]bool{}
	for _, v := range a[:k] {
		set[v] = true
	}
	n := 0
	for _, v := range bb[:k] {
		if set[v] {
			n++
		}
	}
	return n
}

// BenchmarkAblationGuard measures the bad-configuration guard's
// effect on search cost: ROBOTune with and without the median-multiple
// stopping threshold (§4).
func BenchmarkAblationGuard(b *testing.B) {
	run := func(guard float64, seed uint64) float64 {
		opts := core.Options{GenericSamples: 80, PermuteRepeats: 3, GuardMultiple: guard}
		opts.BO = bo.DefaultConfig()
		opts.BO.CandidatePool = 128
		opts.BO.Starts = 1
		opts.BO.GP.Restarts = 1
		rt := core.New(nil, opts)
		ev := sparksim.NewEvaluator(sparksim.PaperCluster(), sparksim.KMeans(400), seed, 480)
		res := rt.Tune(ev, conf.SparkSpace(), 40, seed)
		return res.SearchCost
	}
	for i := 0; i < b.N; i++ {
		var g, ng float64
		const seeds = 2
		for s := uint64(0); s < seeds; s++ {
			g += run(2, 31+s)
			ng += run(-1, 31+s)
		}
		b.ReportMetric(g/seeds, "guarded-cost-s")
		b.ReportMetric(ng/seeds, "unguarded-cost-s")
	}
}

// --- Micro benchmarks --------------------------------------------------------

func BenchmarkLHS(b *testing.B) {
	rng := sample.NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sample.LHS(100, 44, rng)
	}
}

func BenchmarkMaximinLHS(b *testing.B) {
	rng := sample.NewRNG(1)
	for i := 0; i < b.N; i++ {
		sample.MaximinLHS(20, 8, 0, rng)
	}
}

func BenchmarkSimulatorRun(b *testing.B) {
	cl := sparksim.PaperCluster()
	w := sparksim.PageRank(10)
	space := conf.SparkSpace()
	c := space.Decode(sample.LHS(1, space.Dim(), sample.NewRNG(2))[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparksim.Run(cl, w, c, sample.NewRNG(uint64(i)), 480)
	}
}

// BenchmarkForestTrain measures Random-Forest training at workers=1
// (the serial baseline) and workers=GOMAXPROCS; tree growth is
// embarrassingly parallel, so the speedup should track core count.
// The trained forests are bit-identical (see TestTrainWorkersParity).
func BenchmarkForestTrain(b *testing.B) {
	x := sample.LHS(100, 44, sample.NewRNG(3))
	y := make([]float64, len(x))
	for i, u := range x {
		y[i] = u[0]*100 + u[1]*u[2]*50
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := forest.RFDefaults()
			cfg.Trees = 100
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i)
				forest.Train(x, y, cfg)
			}
		})
	}
}

func BenchmarkForestPredict(b *testing.B) {
	x := sample.LHS(100, 44, sample.NewRNG(3))
	y := make([]float64, len(x))
	for i, u := range x {
		y[i] = u[0]*100 + u[1]*u[2]*50
	}
	f := forest.Train(x, y, forest.RFDefaults())
	probe := x[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Predict(probe)
	}
}

// BenchmarkPermImportance measures MDA permutation importance in the
// selection's real shape — 100 trees, the 34 groups of the
// 44-parameter space, 10 repeats — at workers=1 and workers=GOMAXPROCS.
// Each (group, repeat) OOB pass is independent, so this path also
// scales with cores while producing bit-identical drops.
func BenchmarkPermImportance(b *testing.B) {
	space := conf.SparkSpace()
	x := sample.LHS(100, space.Dim(), sample.NewRNG(4))
	y := make([]float64, len(x))
	for i, u := range x {
		y[i] = u[0]*100 + u[5]*u[7]*50
	}
	f := forest.Train(x, y, forest.RFDefaults())
	groups := space.Groups()
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.PermutationImportance(groups, 10, uint64(i), workers)
			}
		})
	}
}

// BenchmarkMultistart measures the multi-start L-BFGS-B acquisition
// search (the §4 inner loop) on a GP posterior surface at workers=1
// and workers=GOMAXPROCS. The argmin is bit-identical across worker
// counts (see optimize.TestMultistartWorkersParity).
func BenchmarkMultistart(b *testing.B) {
	x := sample.LHS(60, 8, sample.NewRNG(12))
	y := make([]float64, len(x))
	for i, u := range x {
		y[i] = math.Sin(3*u[0]) + u[1]*u[1] + 0.5*u[2]
	}
	g, err := gp.Fit(x, y, func() gp.Config { c := gp.DefaultConfig(); c.Restarts = 1; return c }())
	if err != nil {
		b.Fatal(err)
	}
	neg := func(u []float64) float64 {
		mu, v := g.Predict(u)
		return mu - 1.96*math.Sqrt(v)
	}
	bounds := optimize.UnitBox(8)
	local := func(f optimize.Objective, x0 []float64, bb optimize.Bounds) optimize.Result {
		return optimize.LBFGSB(f, x0, bb, 40)
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				optimize.Multistart(neg, bounds, 16, nil, sample.NewRNG(uint64(i)), workers, local)
			}
		})
	}
}

// gpBenchData builds a reproducible d-dimensional training set of n
// points for the GP fast-path benchmarks.
func gpBenchData(n, d int, seed uint64) ([][]float64, []float64) {
	x := sample.LHS(n, d, sample.NewRNG(seed))
	y := make([]float64, len(x))
	for i, u := range x {
		y[i] = math.Sin(3*u[0]) + u[1]*u[1] + 0.5*u[2] - 0.25*u[3]
	}
	return x, y
}

// BenchmarkGPFitScale measures the full GP fit (hyperparameter
// multistart + factorization) at realistic campaign sizes. This is the
// BO engine's per-iteration bottleneck (§3.4): each Suggest triggers a
// fit whose likelihood objective is evaluated hundreds of times.
func BenchmarkGPFitScale(b *testing.B) {
	for _, n := range []int{20, 60, 120} {
		x, y := gpBenchData(n, 8, 5)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cfg := gp.DefaultConfig()
			cfg.Restarts = 2
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i)
				if _, err := gp.Fit(x, y, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGPFitARDScale is the ARD variant: d extra hyperparameters
// and a per-dimension inner kernel loop, the worst case the distance
// cache is built for.
func BenchmarkGPFitARDScale(b *testing.B) {
	for _, n := range []int{20, 60} {
		x, y := gpBenchData(n, 8, 5)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cfg := gp.DefaultConfig()
			cfg.ARD = true
			cfg.Restarts = 1
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i)
				if _, err := gp.Fit(x, y, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGPPredictScale measures posterior prediction, the inner
// call of the acquisition multistart (thousands of calls per Suggest).
func BenchmarkGPPredictScale(b *testing.B) {
	for _, n := range []int{20, 60, 120} {
		x, y := gpBenchData(n, 8, 6)
		cfg := gp.DefaultConfig()
		cfg.Restarts = 1
		g, err := gp.Fit(x, y, cfg)
		if err != nil {
			b.Fatal(err)
		}
		probe := x[0]
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.Predict(probe)
			}
		})
	}
}

// BenchmarkGPPredictIntoScale is the scratch-reusing posterior the
// acquisition multistart uses: zero allocations per call.
func BenchmarkGPPredictIntoScale(b *testing.B) {
	for _, n := range []int{20, 60, 120} {
		x, y := gpBenchData(n, 8, 6)
		cfg := gp.DefaultConfig()
		cfg.Restarts = 1
		g, err := gp.Fit(x, y, cfg)
		if err != nil {
			b.Fatal(err)
		}
		probe := x[0]
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var s gp.PredictScratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.PredictInto(&s, probe)
			}
		})
	}
}

// BenchmarkBOSuggestScale measures one full Suggest (surrogate update
// + hedge settle + acquisition multistart) on an engine preloaded with
// n observations — the steady-state per-iteration cost of a campaign.
func BenchmarkBOSuggestScale(b *testing.B) {
	for _, n := range []int{20, 60} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cfg := bo.DefaultConfig()
			cfg.Seed = 8
			cfg.CandidatePool = 128
			cfg.Starts = 1
			cfg.GP.Restarts = 1
			e := bo.New(6, cfg)
			rng := sample.NewRNG(8)
			for _, u := range sample.LHS(n, 6, rng) {
				e.Tell(u, math.Sin(3*u[0])+u[1])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u, err := e.Suggest()
				if err != nil {
					b.Fatal(err)
				}
				e.Tell(u, math.Sin(3*u[0])+u[1])
			}
		})
	}
}

func BenchmarkGPFit(b *testing.B) {
	x := sample.LHS(60, 8, sample.NewRNG(5))
	y := make([]float64, len(x))
	for i, u := range x {
		y[i] = math.Sin(3*u[0]) + u[1]*u[1]
	}
	cfg := gp.DefaultConfig()
	cfg.Restarts = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		if _, err := gp.Fit(x, y, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGPPredict(b *testing.B) {
	x := sample.LHS(100, 8, sample.NewRNG(6))
	y := make([]float64, len(x))
	for i, u := range x {
		y[i] = math.Sin(3*u[0]) + u[1]*u[1]
	}
	g, err := gp.Fit(x, y, gp.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	probe := x[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Predict(probe)
	}
}

func BenchmarkCholesky(b *testing.B) {
	n := 100
	rng := sample.NewRNG(7)
	m := linalg.NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	a := linalg.Mul(m, m.T())
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := linalg.Cholesky(a, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBOSuggest(b *testing.B) {
	cfg := bo.DefaultConfig()
	cfg.Seed = 8
	cfg.CandidatePool = 128
	cfg.Starts = 1
	cfg.GP.Restarts = 1
	e := bo.New(6, cfg)
	rng := sample.NewRNG(8)
	for _, u := range sample.LHS(30, 6, rng) {
		e.Tell(u, math.Sin(3*u[0])+u[1])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, err := e.Suggest()
		if err != nil {
			b.Fatal(err)
		}
		e.Tell(u, math.Sin(3*u[0])+u[1])
	}
}

func BenchmarkEvaluatorThroughput(b *testing.B) {
	ev := sparksim.NewEvaluator(sparksim.PaperCluster(), sparksim.TeraSort(20), 9, 480)
	space := conf.SparkSpace()
	design := sample.LHS(64, space.Dim(), sample.NewRNG(9))
	cfgs := make([]conf.Config, len(design))
	for i, u := range design {
		cfgs[i] = space.Decode(u)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.EvaluateSpec(cfgs[i%len(cfgs)], sparksim.EvalSpec{})
	}
}

// BenchmarkFullTuningSession measures one complete ROBOTune session
// (selection + 40 tuning evaluations) end to end.
func BenchmarkFullTuningSession(b *testing.B) {
	space := conf.SparkSpace()
	for i := 0; i < b.N; i++ {
		opts := core.Options{GenericSamples: 80, PermuteRepeats: 3}
		opts.BO = bo.DefaultConfig()
		opts.BO.CandidatePool = 128
		opts.BO.Starts = 1
		opts.BO.GP.Restarts = 1
		rt := core.New(memo.NewStore(), opts)
		ev := sparksim.NewEvaluator(sparksim.PaperCluster(), sparksim.KMeans(200), uint64(i), 480)
		res := rt.Tune(ev, space, 40, uint64(i))
		if res.Found {
			b.ReportMetric(res.BestSeconds, "best-s")
		}
	}
}

// Guard against accidental removal of baselines from the grid.
var _ = []tuners.Tuner{tuners.RandomSearch{}, tuners.BestConfig{}, tuners.Gunther{}}

// BenchmarkAblationARD compares the isotropic Matérn kernel against
// ARD (per-dimension length scales) on held-out prediction quality
// over a tuning subspace sample.
func BenchmarkAblationARD(b *testing.B) {
	space := conf.SparkSpace()
	sub, err := space.Sub([]string{
		conf.ExecutorCores, conf.ExecutorMemory, conf.ExecutorInstances,
		conf.DefaultParallelism, conf.LocalityWait, // one near-inert dim for ARD to discount
	}, space.Default().With(conf.ExecutorMemory, 32768))
	if err != nil {
		b.Fatal(err)
	}
	ev := tsObjective(17)
	design := sample.LHS(40, sub.Dim(), sample.NewRNG(17))
	y := make([]float64, len(design))
	for i, u := range design {
		y[i] = ev.EvaluateSpec(sub.Decode(u), sparksim.EvalSpec{}).Seconds
	}
	probes := sample.LHS(30, sub.Dim(), sample.NewRNG(18))
	probeY := make([]float64, len(probes))
	for i, u := range probes {
		probeY[i] = ev.EvaluateSpec(sub.Decode(u), sparksim.EvalSpec{}).Seconds
	}
	score := func(ard bool) float64 {
		cfg := gp.DefaultConfig()
		cfg.ARD = ard
		cfg.Restarts = 2
		cfg.Seed = 19
		g, err := gp.Fit(design, y, cfg)
		if err != nil {
			return math.Inf(1)
		}
		var mse float64
		for i, u := range probes {
			mu, _ := g.Predict(u)
			d := mu - probeY[i]
			mse += d * d
		}
		return mse / float64(len(probes))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(score(false), "iso-mse")
		b.ReportMetric(score(true), "ard-mse")
	}
}

// BenchmarkExtensionSHA compares the Successive-Halving extension
// baseline against ROBOTune under equal budgets: SHA's adaptive caps
// make its search cheap, but the model-free schedule usually finds
// worse configurations.
func BenchmarkExtensionSHA(b *testing.B) {
	space := conf.SparkSpace()
	for i := 0; i < b.N; i++ {
		evSHA := sparksim.NewEvaluator(sparksim.PaperCluster(), sparksim.PageRank(10), 51, 480)
		sha := tuners.SuccessiveHalving{}.Tune(evSHA, space, 60, 51)
		shaQ := 480.0
		if sha.Found {
			shaQ = evSHA.Measure(sha.Best, 3, 99)
		}

		opts := core.Options{GenericSamples: 80, PermuteRepeats: 3}
		opts.BO = bo.DefaultConfig()
		opts.BO.CandidatePool = 128
		opts.BO.Starts = 1
		opts.BO.GP.Restarts = 1
		rt := core.New(nil, opts)
		evRT := sparksim.NewEvaluator(sparksim.PaperCluster(), sparksim.PageRank(10), 51, 480)
		res := rt.Tune(evRT, space, 60, 51)
		rtQ := 480.0
		if res.Found {
			rtQ = evRT.Measure(res.Best, 3, 99)
		}
		b.ReportMetric(shaQ, "sha-best-s")
		b.ReportMetric(rtQ, "robotune-best-s")
		b.ReportMetric(sha.SearchCost/float64(sha.Evals), "sha-cost-per-eval")
		b.ReportMetric(res.SearchCost/float64(res.Evals), "rt-cost-per-eval")
	}
}
