// Quickstart: tune one Spark workload with ROBOTune on the simulated
// cluster and print what it found.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/sparksim"
	"repro/internal/tuners"
)

func main() {
	// The black box we optimize: a KMeans job over 200M points on the
	// paper's 5-worker cluster, with the paper's 480 s per-run limit.
	workload := sparksim.KMeans(200)
	evaluator := sparksim.NewEvaluator(sparksim.PaperCluster(), workload, 42, 480)

	// ROBOTune with the paper's settings: 100 LHS samples for
	// Random-Forest parameter selection, 20 BO training samples,
	// GP-Hedge portfolio of PI/EI/LCB.
	tuner := core.New(nil, core.Options{})

	space := conf.SparkSpace() // the 44-parameter Spark 2.4 space
	result := tuner.Run(tuners.NewSession(evaluator, space, tuners.Request{Budget: 100, Seed: 42}))
	if !result.Found {
		log.Fatal("no completing configuration found")
	}

	fmt.Printf("workload              : %s\n", workload.ID())
	fmt.Printf("best execution time   : %.1f s\n", result.BestSeconds)
	fmt.Printf("default execution time: %.1f s (capped at the 480 s limit)\n",
		evaluator.Measure(space.Default(), 3, 7))
	fmt.Printf("selected parameters   : %d of %d\n",
		len(result.SelectedParams), space.Dim())
	for _, p := range result.SelectedParams {
		param, _ := space.Param(p)
		fmt.Printf("  %-44s = %s\n", p, param.FormatRaw(result.Best.Raw(p)))
	}
	fmt.Printf("search cost           : %.0f s over %d evaluations\n",
		result.SearchCost, result.Evals)
	fmt.Printf("selection (one-time)  : %.0f s over %d evaluations\n",
		result.SelectionCost, result.SelectionEvals)
}
