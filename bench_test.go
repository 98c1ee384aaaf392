// Benchmarks with no robobench counterpart: two ablations of design
// choices called out in DESIGN.md (MDI vs MDA importance, isotropic vs
// ARD kernel) and micro benchmarks for the numerical substrates. The
// paper's figures, tables and the ablation table are regenerated by
// `go run ./cmd/robobench`, and end-to-end speed is measured by
// `sh bench/run.sh`. `make bench` runs the parallelism and GP
// micro benchmarks; bench_gp_scale_test.go holds the large-n ones.
package repro

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/backend"
	"repro/internal/bo"
	"repro/internal/clustersim"
	"repro/internal/conf"
	"repro/internal/forest"
	"repro/internal/gp"
	"repro/internal/linalg"
	"repro/internal/optimize"
	"repro/internal/sample"
	"repro/internal/sparksim"
	"repro/internal/tuners"
)

// --- Ablation benchmarks -----------------------------------------------------

// tsObjective builds a fresh TeraSort evaluator for ablation runs.
func tsObjective(seed uint64) *sparksim.Evaluator {
	return sparksim.NewEvaluator(sparksim.PaperCluster(), sparksim.TeraSort(30), seed, 480)
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
		y[i] = ev.EvaluateSpec(space.Decode(u), backend.EvalSpec{}).Seconds
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

// BenchmarkClusterSimRun replays the two D3 traces the clustersim-cold
// bench workload tunes (BatchETL and MLTrain) under 64 random
// scheduler configurations, one replay per iteration.
func BenchmarkClusterSimRun(b *testing.B) {
	sp := clustersim.Space()
	var ws []clustersim.Workload
	for _, name := range []string{"BatchETL", "MLTrain"} {
		w, err := clustersim.WorkloadByName(name, 2)
		if err != nil {
			b.Fatal(err)
		}
		ws = append(ws, w)
	}
	rng := sample.NewRNG(9)
	cfgs := make([]conf.Config, 64)
	for i := range cfgs {
		cfgs[i] = sp.Decode(sample.Uniform(1, sp.Dim(), rng)[0])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clustersim.Run(ws[i/len(cfgs)%len(ws)], cfgs[i%len(cfgs)], sample.NewRNG(uint64(i)), clustersim.DefaultCapSeconds)
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
		return optimize.LBFGSB(f, nil, x0, bb, 40)
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

// BenchmarkGPPredictBatch measures one acquisition gradient's posterior
// predictions: the 16 central-difference probes of an 8-dimensional
// gradient on a GP of n=120 points, batched through PredictBatchInto
// (four forward solves per pass) against the same points one
// PredictInto call at a time. Both give bit-identical results.
func BenchmarkGPPredictBatch(b *testing.B) {
	x, y := gpBenchData(120, 8, 6)
	cfg := gp.DefaultConfig()
	cfg.Restarts = 1
	g, err := gp.Fit(x, y, cfg)
	if err != nil {
		b.Fatal(err)
	}
	probes := sample.LHS(16, 8, sample.NewRNG(7))
	mu := make([]float64, len(probes))
	variance := make([]float64, len(probes))
	var s gp.PredictScratch
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.PredictBatchInto(&s, probes, mu, variance)
		}
	})
	b.Run("one-by-one", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for p, u := range probes {
				mu[p], variance[p] = g.PredictInto(&s, u)
			}
		}
	})
}

// BenchmarkBOSuggestScale measures one full Suggest (surrogate update
// + hedge settle + acquisition multistart) on an engine preloaded with
// n observations — the steady-state per-iteration cost of a campaign.
func BenchmarkBOSuggestScale(b *testing.B) {
	for _, n := range []int{20, 60, 120} {
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

// BenchmarkCholesky factors an n=120 SPD matrix, the GP size the
// spark-warm-long benchmark workload reaches (and below the blocked
// kernel's threshold, so this is the unblocked four-row kernel).
func BenchmarkCholesky(b *testing.B) {
	n := 120
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
		ev.EvaluateSpec(cfgs[i%len(cfgs)], backend.EvalSpec{})
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
		y[i] = ev.EvaluateSpec(sub.Decode(u), backend.EvalSpec{}).Seconds
	}
	probes := sample.LHS(30, sub.Dim(), sample.NewRNG(18))
	probeY := make([]float64, len(probes))
	for i, u := range probes {
		probeY[i] = ev.EvaluateSpec(sub.Decode(u), backend.EvalSpec{}).Seconds
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
