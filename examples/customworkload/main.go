// Custom workload: define your own stage plan for the Spark
// simulator and tune it. This mirrors onboarding a new application
// onto ROBOTune — nothing in the tuner is specific to the five paper
// workloads.
//
// The example models a two-pass log-analytics job: parse and filter a
// large input, shuffle a session-key aggregation, cache the sessions,
// then run two analytical passes over the cached sessions.
//
// Only the workload definition names the simulator: the tuning itself
// runs through the backend seam (backend.Evaluator + optional
// capability probes), exactly as it would for any other registered
// backend.
//
//	go run ./examples/customworkload
package main

import (
	"fmt"
	"log"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/sparksim"
	"repro/internal/tuners"
)

func sessionAnalytics(gbInput float64) sparksim.Workload {
	dataMB := gbInput * 1024
	sessionsMB := dataMB * 0.35 // sessionization compacts the input
	return sparksim.Workload{
		Name:    "SessionAnalytics",
		Dataset: fmt.Sprintf("%gGB logs", gbInput),
		Stages: []sparksim.Stage{
			{
				Name:         "parse-filter",
				Source:       sparksim.FromHDFS,
				InputMB:      dataMB,
				CostFactor:   1.3, // regex-heavy parsing
				ExpandFactor: 2.2,
				MemHungry:    0.05,
				SpillFrac:    0.1,
				ShuffleOutMB: sessionsMB,
				Skew:         0.3,
			},
			{
				Name:              "sessionize",
				Source:            sparksim.FromShuffle,
				InputMB:           sessionsMB,
				CostFactor:        0.8,
				ExpandFactor:      2.8,
				MemHungry:         0.3, // per-key session windows
				SpillFrac:         0.6,
				CacheOutMB:        sessionsMB * 2.8,
				CacheOutKey:       "sessions",
				CacheDiskFallback: true,
				Skew:              0.5, // hot keys
			},
			{
				Name:         "funnel-pass",
				Source:       sparksim.FromCache,
				CacheKey:     "sessions",
				InputMB:      sessionsMB,
				CostFactor:   1.1,
				ExpandFactor: 2.8,
				MemHungry:    0.1,
				SpillFrac:    0.3,
				ShuffleOutMB: 64,
				Skew:         0.2,
			},
			{
				Name:         "cohort-pass",
				Source:       sparksim.FromCache,
				CacheKey:     "sessions",
				InputMB:      sessionsMB,
				CostFactor:   1.6,
				ExpandFactor: 2.8,
				MemHungry:    0.1,
				SpillFrac:    0.3,
				ShuffleOutMB: 32,
				Skew:         0.2,
			},
		},
	}
}

// measure estimates the final quality of a tuned configuration via
// the backend's optional Measure capability. Generic over backends:
// it only sees the seam interfaces.
func measure(ev backend.Evaluator, res tuners.Result, capSeconds float64) float64 {
	if !res.Found {
		return capSeconds
	}
	m, ok := ev.(backend.Measurer)
	if !ok {
		return capSeconds
	}
	return m.Measure(res.Best, 5, 99)
}

func main() {
	w := sessionAnalytics(24)
	bk := sparksim.Backend{} // zero value = the paper's cluster layout
	space := bk.Space()

	// The custom Workload value plugs straight into the backend's
	// evaluator factory — from here on everything is seam-typed.
	newEval := func() backend.Evaluator {
		ev, err := bk.NewEvaluator(w, 7, bk.DefaultCap(), backend.FaultPlan{})
		if err != nil {
			log.Fatal(err)
		}
		return ev
	}

	// Compare ROBOTune against Random Search on the custom workload.
	ev := newEval()
	rt := core.New(nil, core.Options{})
	res := rt.Run(tuners.NewSession(ev, space, tuners.Request{Budget: 80, Seed: 7}))
	if !res.Found {
		log.Fatal("ROBOTune found nothing")
	}
	rtQuality := measure(ev, res, bk.DefaultCap())

	evRS := newEval()
	rs := tuners.RandomSearch{}
	resRS := rs.Run(tuners.NewSession(evRS, space, tuners.Request{Budget: 80, Seed: 7}))
	rsQuality := measure(evRS, resRS, bk.DefaultCap())

	fmt.Printf("workload: %s\n\n", w.ID())
	fmt.Printf("%-14s %12s %14s\n", "tuner", "best (s)", "search cost (s)")
	fmt.Printf("%-14s %12.1f %14.0f\n", "ROBOTune", rtQuality, res.SearchCost)
	fmt.Printf("%-14s %12.1f %14.0f\n", "RandomSearch", rsQuality, resRS.SearchCost)

	fmt.Printf("\nROBOTune's selected parameters for this workload:\n")
	for _, p := range res.SelectedParams {
		param, _ := space.Param(p)
		fmt.Printf("  %-44s = %s\n", p, param.FormatRaw(res.Best.Raw(p)))
	}
}
