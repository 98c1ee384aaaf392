package bo

// Large-n surrogate scaling benchmarks: exact GP fit/extend/suggest at
// n in {500, 1000, 2000} (blocked Cholesky underneath), plus the sparse
// local-subset path at the default 512 threshold. `make bench-gp-scale`
// runs them.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/gp"
	"repro/internal/sample"
)

func scaleBenchData(n, d int, seed uint64) ([][]float64, []float64) {
	rng := sample.NewRNG(seed)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()
		}
		x[i] = row
		s := 0.0
		for j := range row {
			dv := row[j] - 0.5
			s += dv * dv
		}
		y[i] = s + 0.05*math.Sin(10*row[0]) + 0.01*rng.NormFloat64()
	}
	return x, y
}

var scaleParams = gp.Params{LogVariance: 0, LogLength: math.Log(0.4), LogNoise: math.Log(1e-4)}

var scaleSizes = []int{500, 1000, 2000}

func scaleGPConfig(sparse bool) gp.Config {
	cfg := gp.DefaultConfig()
	cfg.FitHyper = false
	cfg.Init = scaleParams
	if sparse {
		cfg.SparseThreshold = DefaultSparseThreshold
	}
	return cfg
}

func BenchmarkGPScaleFit(b *testing.B) {
	for _, mode := range []string{"exact", "sparse"} {
		for _, n := range scaleSizes {
			b.Run(fmt.Sprintf("%s/n=%d", mode, n), func(b *testing.B) {
				x, y := scaleBenchData(n, 8, 42)
				cfg := scaleGPConfig(mode == "sparse")
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := gp.Fit(x, y, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkGPScaleExtend(b *testing.B) {
	for _, mode := range []string{"exact", "sparse"} {
		for _, n := range scaleSizes {
			b.Run(fmt.Sprintf("%s/n=%d", mode, n), func(b *testing.B) {
				x, y := scaleBenchData(n+1, 8, 42)
				cfg := scaleGPConfig(mode == "sparse")
				g, err := gp.Fit(x[:n], y[:n], cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := g.Extend(x, y); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkGPScaleSuggest times Suggest at fixed hyperparameters: each
// iteration refits the posterior in full (DisableIncremental) and runs
// the acquisition search, with the hyperparameter search held off, as
// between the engine's refits, by marking the hyperparameters as just
// fitted.
func BenchmarkGPScaleSuggest(b *testing.B) {
	for _, mode := range []string{"exact", "sparse"} {
		for _, n := range scaleSizes {
			b.Run(fmt.Sprintf("%s/n=%d", mode, n), func(b *testing.B) {
				x, y := scaleBenchData(n, 8, 42)
				cfg := Config{Seed: 7, DisableIncremental: true}
				if mode == "sparse" {
					cfg.SparseThreshold = DefaultSparseThreshold
				}
				e := New(8, cfg)
				for i := range x {
					e.Tell(x[i], y[i])
				}
				e.lastHyper = scaleParams
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.hyperFitAtN = e.N()
					u, err := e.Suggest()
					if err != nil {
						b.Fatal(err)
					}
					s := 0.0
					for j := range u {
						dv := u[j] - 0.5
						s += dv * dv
					}
					e.Tell(u, s)
				}
			})
		}
	}
}
