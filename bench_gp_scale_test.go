package repro

// Large-n surrogate scaling benchmarks: exact GP fit/extend/suggest at
// n in {500, 1000, 2000} (blocked Cholesky underneath), plus the sparse
// local-subset path at the default 512 threshold. `make bench-gp-scale`
// runs them.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bo"
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
		cfg.SparseThreshold = bo.DefaultSparseThreshold
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

func BenchmarkGPScaleSuggest(b *testing.B) {
	for _, mode := range []string{"exact", "sparse"} {
		for _, n := range scaleSizes {
			b.Run(fmt.Sprintf("%s/n=%d", mode, n), func(b *testing.B) {
				x, y := scaleBenchData(n, 8, 42)
				cfg := bo.DefaultConfig()
				cfg.Seed = 7
				cfg.GP.FitHyper = false
				cfg.GP.Init = scaleParams
				if mode == "sparse" {
					cfg.Sparse = true
				}
				e := bo.New(8, cfg)
				for i := range x {
					e.Tell(x[i], y[i])
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
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
