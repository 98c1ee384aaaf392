// Memoization: tune the same workload family across three growing
// input datasets, demonstrating the §3.2 machinery — the parameter
// selection cache (selection runs once) and the configuration
// memoization buffer (later sessions warm-start from the best recent
// configurations). This is the workflow behind Figure 6.
//
//	go run ./examples/memoization
package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/sparksim"
	"repro/internal/tuners"
)

func main() {
	// Persist tuning knowledge like a long-lived service would.
	dir, err := os.MkdirTemp("", "robotune-memo")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	statePath := filepath.Join(dir, "memo.json")

	space := conf.SparkSpace()
	cluster := sparksim.PaperCluster()
	datasets := []sparksim.Workload{
		sparksim.PageRank(5),   // D1: 5M pages
		sparksim.PageRank(7.5), // D2: 7.5M pages
		sparksim.PageRank(10),  // D3: 10M pages
	}

	for i, w := range datasets {
		// Each session reloads the store: knowledge survives process
		// restarts through the JSON file.
		store, err := memo.Load(statePath)
		if err != nil {
			log.Fatal(err)
		}
		tuner := core.New(store, core.Options{})
		ev := sparksim.NewEvaluator(cluster, w, uint64(100+i), 480)
		res := tuner.Run(tuners.NewSession(ev, space, tuners.Request{Budget: 100, Seed: uint64(100 + i)}))
		if !res.Found {
			log.Fatalf("%s: nothing found", w.ID())
		}
		if err := store.Save(statePath); err != nil {
			log.Fatal(err)
		}

		kind := "cache MISS → ran parameter selection"
		if res.SelectionEvals == 0 {
			kind = "cache HIT → selection skipped"
		}
		fmt.Printf("session %d: %-22s %s\n", i+1, w.Dataset, kind)
		fmt.Printf("  best %.1f s after %d evaluations (search cost %.0f s)\n",
			res.BestSeconds, res.Evals, res.SearchCost)
		fmt.Printf("  first observation within 10%% of final best at iteration %d\n",
			firstWithin(res.Trace, 0.10))
	}

	fmt.Println("\nMemoized sessions (2 and 3) skip the one-time selection cost and")
	fmt.Println("warm-start from the previous sessions' best configurations; once")
	fmt.Println("the buffer holds configurations from nearby dataset sizes, near-")
	fmt.Println("optimal configurations appear within the first few iterations.")
}

// firstWithin returns the 1-based iteration whose running minimum is
// within frac of the trace's final minimum.
func firstWithin(trace []float64, frac float64) int {
	best := math.Inf(1)
	for _, v := range trace {
		if v < best {
			best = v
		}
	}
	for i, v := range trace {
		if v <= best*(1+frac) {
			return i + 1
		}
	}
	return len(trace)
}
