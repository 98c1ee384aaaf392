// Race stress suite: short, hostile concurrency tests for every
// structure the tuner shares across goroutines. They assert nothing
// subtle — their value is under `go test -race ./...` (the `race`
// Makefile target), where the detector turns any unsynchronized
// access into a failure.
package repro

import (
	"context"
	"sync"
	"testing"

	"repro/internal/backend"
	"repro/internal/conf"
	"repro/internal/forest"
	"repro/internal/memo"
	"repro/internal/optimize"
	"repro/internal/sample"
	"repro/internal/sparksim"
)

const stressG = 8 // hostile goroutines per role

func stressConfigs(space *conf.Space, n int, seed uint64) []conf.Config {
	rng := sample.NewRNG(seed)
	cfgs := make([]conf.Config, n)
	for i, u := range sample.LHS(n, space.Dim(), rng) {
		cfgs[i] = space.Decode(u)
	}
	return cfgs
}

func TestStressMemoStore(t *testing.T) {
	store := memo.NewStore()
	var wg sync.WaitGroup
	for g := 0; g < stressG; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			workloads := []string{"TeraSort", "PageRank", "KMeans"}
			for i := 0; i < 200; i++ {
				w := workloads[(g+i)%len(workloads)]
				switch i % 5 {
				case 0:
					store.PutSelection(w, []string{"spark.executor.cores", "spark.executor.memory"})
				case 1:
					store.Selection(w)
				case 2:
					store.AddConfigs(w, []memo.SavedConfig{{
						Values:  map[string]float64{"spark.executor.cores": float64(1 + i%8)},
						Seconds: float64(50 + i),
						Dataset: "d",
					}}, 8)
				case 3:
					store.BestConfigs(w, 4)
				default:
					store.Workloads()
				}
			}
		}(g)
	}
	wg.Wait()
	if len(store.Workloads()) == 0 {
		t.Error("store empty after stress")
	}
}

func TestStressEvaluator(t *testing.T) {
	space := conf.SparkSpace()
	ev := sparksim.NewEvaluator(sparksim.PaperCluster(), sparksim.TeraSort(20), 1, 480)
	cfgs := stressConfigs(space, 16, 2)
	var wg sync.WaitGroup
	for g := 0; g < stressG; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				c := cfgs[(g*7+i)%len(cfgs)]
				switch i % 5 {
				case 0:
					ev.EvaluateSpec(c, backend.EvalSpec{})
				case 1:
					ev.EvaluateSpec(c, backend.EvalSpec{Cap: 120})
				case 2:
					ev.EvaluateSpecCtx(context.Background(), cfgs[:4], backend.EvalSpec{Workers: 2})
				case 3:
					ev.Evals()
					ev.SearchCost()
				default:
					// RestoreStream races against in-flight
					// evaluations: the eval-counter handoff must stay
					// locked.
					ev.RestoreStream(g*100+i, float64(i))
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestStressForestWorkers(t *testing.T) {
	rng := sample.NewRNG(5)
	n, d := 120, 6
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()
		}
		x[i] = row
		y[i] = 3*row[0] + row[1]*row[1]
	}
	f := forest.Train(x, y, forest.Config{Trees: 30, Bootstrap: true, Seed: 7, Workers: stressG})
	groups := [][]int{{0}, {1}, {2, 3}, {4, 5}}
	var wg sync.WaitGroup
	for g := 0; g < stressG; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Concurrent importance runs share the forest read-only
			// while each spins up its own worker pool.
			f.PermutationImportance(groups, 2, uint64(g), stressG)
			f.Predict(x[g%len(x)])
			f.OOBR2()
		}(g)
	}
	wg.Wait()
}

func TestStressMultistartWorkers(t *testing.T) {
	sphere := func(x, grad []float64) float64 {
		var s float64
		for i, v := range x {
			s += (v - 0.4) * (v - 0.4)
			grad[i] = 2 * (v - 0.4)
		}
		return s
	}
	b := optimize.UnitBox(4)
	local := func(x0 []float64) optimize.Result {
		return optimize.LBFGSB(sphere, x0, b, 40, optimize.Search)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := optimize.Multistart(b, 12, nil, sample.NewRNG(uint64(g)), stressG, local)
			if r.F > 1e-6 {
				t.Errorf("goroutine %d: multistart min %v", g, r.F)
			}
		}(g)
	}
	wg.Wait()
}
