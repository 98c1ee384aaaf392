package bo_test

import (
	"fmt"

	"repro/internal/bo"
	"repro/internal/sample"
)

// The engine implements Algorithm 1: seed it with initial
// observations, then loop Suggest → evaluate → Tell.
func ExampleEngine() {
	f := func(x []float64) float64 {
		return (x[0]-0.7)*(x[0]-0.7) + (x[1]-0.3)*(x[1]-0.3)
	}
	engine := bo.New(2, bo.Config{Seed: 1})
	for _, u := range sample.LHS(8, 2, sample.NewRNG(1)) {
		engine.Tell(u, f(u))
	}
	for i := 0; i < 15; i++ {
		x, err := engine.Suggest()
		if err != nil {
			panic(err)
		}
		engine.Tell(x, f(x))
	}
	_, best, _ := engine.Best()
	fmt.Println("found the optimum region:", best < 0.01)
	fmt.Println("portfolio:", engine.PortfolioNames())
	// Output:
	// found the optimum region: true
	// portfolio: [PI EI LCB]
}
