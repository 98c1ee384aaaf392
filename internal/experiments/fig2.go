package experiments

import (
	"repro/internal/backend"

	"fmt"

	"repro/internal/forest"
	"repro/internal/linmodel"
	"repro/internal/sample"
	"repro/internal/stats"
)

// Fig2Result holds Figure 2: five-fold cross-validated R² of the four
// candidate importance models on LHS configuration/runtime samples of
// PageRank and KMeans (three datasets each).
type Fig2Result struct {
	// Scores[workload-dataset][model] is the CV R².
	Scores map[string]map[string]float64
	// Labels preserves row order, e.g. "PR-D1".
	Labels []string
}

// Fig2Models is the model order of Figure 2.
var Fig2Models = []string{"Lasso", "ElasticNet", "RandomForest", "ExtraTrees"}

// Fig2ModelComparison reproduces Figure 2: generate `samples` LHS
// configurations (paper: 200), collect execution times, and compare
// the coefficient of determination of linear vs tree-based models
// under five-fold cross-validation. Higher is better; the paper finds
// RF best and the linear models far behind.
func Fig2ModelComparison(cfg Config, samples int) Fig2Result {
	cfg = cfg.withDefaults()
	if samples <= 0 {
		samples = 200
	}
	space := sparkSpace()
	grid := sparkGrid()

	out := Fig2Result{Scores: map[string]map[string]float64{}}
	for _, wname := range []string{"PageRank", "KMeans"} {
		for di := 0; di < 3; di++ {
			w := grid[wname][di]
			label := fmt.Sprintf("%s-D%d", ShortName[wname], di+1)
			out.Labels = append(out.Labels, label)

			seed := cfg.Seed + uint64(di) + hashName(wname)
			ev := newSparkEval(w, seed, backend.FaultPlan{})
			design := sample.LHS(samples, space.Dim(), sample.NewRNG(seed))
			x := make([][]float64, samples)
			y := make([]float64, samples)
			for i, u := range design {
				rec := ev.EvaluateSpec(space.Decode(u), backend.EvalSpec{})
				x[i] = append([]float64(nil), u...)
				y[i] = rec.Seconds
			}

			out.Scores[label] = map[string]float64{
				"Lasso": cvR2(x, y, seed, func(xi [][]float64, yi []float64) predictor {
					return linmodel.Fit(xi, yi, linmodel.LassoDefaults())
				}),
				"ElasticNet": cvR2(x, y, seed, func(xi [][]float64, yi []float64) predictor {
					return linmodel.Fit(xi, yi, linmodel.ElasticNetDefaults())
				}),
				"RandomForest": cvR2(x, y, seed, func(xi [][]float64, yi []float64) predictor {
					// The model comparison always uses the full
					// ensemble size; Fast mode only shrinks tuning
					// runs.
					return forest.Train(xi, yi, forest.Config{Bootstrap: true, Seed: seed})
				}),
				"ExtraTrees": cvR2(x, y, seed, func(xi [][]float64, yi []float64) predictor {
					fc := forest.ETDefaults()
					fc.Seed = seed
					return forest.Train(xi, yi, fc)
				}),
			}
		}
	}
	return out
}

type predictor interface{ Predict([]float64) float64 }

// cvR2 computes five-fold cross-validated R² of a model family.
func cvR2(x [][]float64, y []float64, seed uint64, train func([][]float64, []float64) predictor) float64 {
	n := len(x)
	folds := stats.KFold(n, 5, sample.NewRNG(seed^0xcf01d))
	pred := make([]float64, n)
	for _, fold := range folds {
		trainIdx := stats.TrainTest(n, fold)
		xi := make([][]float64, len(trainIdx))
		yi := make([]float64, len(trainIdx))
		for k, i := range trainIdx {
			xi[k] = x[i]
			yi[k] = y[i]
		}
		m := train(xi, yi)
		for _, i := range fold {
			pred[i] = m.Predict(x[i])
		}
	}
	return stats.R2(y, pred)
}

// Render prints Figure 2.
func (f Fig2Result) Render() string {
	t := newTable(8, 10, 12, 14, 12)
	t.row("", Fig2Models...)
	t.line()
	for _, label := range f.Labels {
		cells := make([]string, len(Fig2Models))
		for i, m := range Fig2Models {
			cells[i] = fmt.Sprintf("%.3f", f.Scores[label][m])
		}
		t.row(label, cells...)
	}
	return "Figure 2 — cross-validated R² of importance models (higher is better)\n" + t.String()
}
