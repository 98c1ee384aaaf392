// Campaign: ROBOTune as a long-lived tuning service over a queue of
// recurring workloads (§2.2: "most data analytics workloads recur in
// a cluster"). The queue runs as one campaign task: one tuner instance
// tunes every session in order and accumulates the selection cache and
// memoization buffer, so every repeat of a workload family skips the
// one-time selection cost and warm-starts from prior best configs.
//
//	go run ./examples/campaign
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/schedule"
	"repro/internal/tuners"

	// Register the built-in backends with the registry.
	_ "repro/internal/backend/backends"
)

func main() {
	b, err := backend.Lookup("spark")
	if err != nil {
		log.Fatal(err)
	}
	rt := core.New(nil, core.Options{})

	// A day's worth of recurring jobs: graph analytics in the
	// morning, ML training mid-day, nightly sorts — dataset sizes
	// drifting between arrivals (D1 < D2 < D3 in Table 1's scale).
	wl := func(name string, dataset int) backend.Workload {
		w, err := b.Workload(name, dataset)
		if err != nil {
			log.Fatal(err)
		}
		return w
	}
	queue := []backend.Workload{
		wl("PageRank", 0),
		wl("KMeans", 0),
		wl("PageRank", 1),
		wl("TeraSort", 0),
		wl("KMeans", 1),
		wl("PageRank", 2),
		wl("TeraSort", 1),
	}
	evaluator := func(w backend.Workload, seed uint64) backend.Evaluator {
		ev, err := b.NewEvaluator(w, seed, 0, backend.FaultPlan{})
		if err != nil {
			log.Fatal(err)
		}
		return ev
	}
	seed := func(i int) uint64 { return 2026 + uint64(i)*701 }

	task := schedule.Task{Name: "recurring", Space: b.Space(), New: func() tuners.Tuner { return rt }}
	for i, w := range queue {
		task.Sessions = append(task.Sessions, schedule.Session{
			Objective: func() tuners.Objective { return evaluator(w, seed(i)) },
			Request:   tuners.Request{Budget: 60, Seed: seed(i)},
		})
	}
	res, err := schedule.RunCampaign([]schedule.Task{task}, schedule.CampaignOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if reason := res.Tasks[0].Failed; reason != "" {
		log.Fatal(reason)
	}

	fmt.Printf("%-36s %10s %10s %10s %6s\n", "workload", "best(s)", "search(s)", "select(s)", "cache")
	fmt.Println(strings.Repeat("-", 78))
	var search, selection float64
	hits := 0
	sessions := res.Tasks[0].Results
	for i, r := range sessions {
		cache := "MISS"
		if r.SelectionEvals == 0 {
			cache = "hit"
			hits++
		}
		best := "-"
		if r.Found {
			// Verify the best configuration on fresh runs.
			q := evaluator(queue[i], seed(i)).(backend.Measurer).Measure(r.Best, 3, seed(i)*3+11)
			best = fmt.Sprintf("%.1f", q)
		}
		fmt.Printf("%-36s %10s %10.0f %10.0f %6s\n", queue[i].WorkloadName()+"/"+queue[i].DatasetName(),
			best, r.SearchCost, r.SelectionCost, cache)
		search += r.SearchCost
		selection += r.SelectionCost
	}
	fmt.Printf("\ntotals: search %.0f s, one-time selection %.0f s, cache hit rate %.0f%%\n",
		search, selection, 100*float64(hits)/float64(len(sessions)))

	fmt.Println("\nSelection ran once per workload family (three MISSes); every")
	fmt.Println("repeat reused the cached parameters and the memoized configs.")
	fmt.Printf("Amortization: %.0f s of one-time selection across %d sessions.\n",
		selection, len(sessions))
}
