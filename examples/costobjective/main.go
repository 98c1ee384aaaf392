// Cost objective: ROBOTune minimizing resource cost instead of
// wall-clock time (§5.1: "by modifying or replacing the objective
// function, ROBOTune can be easily adapted for optimizing other
// metrics"). The same tuner, pointed at a priced objective, trades a
// little latency for a much smaller cluster footprint.
//
//	go run ./examples/costobjective
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
	space := conf.SparkSpace()
	cluster := sparksim.PaperCluster()
	workload := sparksim.LogisticRegression(200)

	// Baseline: minimize execution time.
	evTime := sparksim.NewEvaluator(cluster, workload, 5, 480)
	rtTime := core.New(nil, core.Options{})
	fast := rtTime.Run(tuners.NewSession(evTime, space, tuners.Request{Budget: 80, Seed: 5}))
	if !fast.Found {
		log.Fatal("time-objective tuning found nothing")
	}

	// Same tuner, priced objective: seconds x (cores + 0.1 x GB).
	evCostBase := sparksim.NewEvaluator(cluster, workload, 5, 480)
	evCost := sparksim.NewResourceCostEvaluator(evCostBase, 0.1)
	rtCost := core.New(nil, core.Options{})
	cheap := rtCost.Run(tuners.NewSession(evCost, space, tuners.Request{Budget: 80, Seed: 5}))
	if !cheap.Found {
		log.Fatal("cost-objective tuning found nothing")
	}

	report := func(label string, c conf.Config) {
		seconds := evTime.Measure(c, 5, 99)
		cost := evCost.MeasureCost(c, 5, 99)
		ex, _ := sparksim.PackExecutors(cluster, c)
		fmt.Printf("%-16s %8.1f s %12.0f core·s %6d cores  (%d executors x %d cores, %s heap)\n",
			label, seconds, cost, ex.Count*ex.CoresEach,
			ex.Count, ex.CoresEach, fmtMB(c.Int(conf.ExecutorMemory)))
	}
	fmt.Printf("workload: %s\n\n", workload.ID())
	fmt.Printf("%-16s %10s %14s %12s\n", "objective", "time", "priced cost", "footprint")
	report("minimize time", fast.Best)
	report("minimize cost", cheap.Best)

	fmt.Println("\nThe cost-optimized configuration accepts a longer runtime in")
	fmt.Println("exchange for a much smaller slice of the cluster — the right")
	fmt.Println("trade when the cluster is shared or billed per core-hour.")
}

func fmtMB(mb int64) string {
	if mb >= 1024 {
		return fmt.Sprintf("%.0fGB", float64(mb)/1024)
	}
	return fmt.Sprintf("%dMB", mb)
}
