package experiments

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/memo"
	"repro/internal/tuners"
)

// MappingRow is one workload's outcome in the mapping experiment.
type MappingRow struct {
	Workload string
	// Mapped is true when the mapper adopted a known family's
	// selection instead of running full selection.
	Mapped bool
	// MatchedTo names the adopted family (empty if none).
	MatchedTo string
	// SelectionEvals is what the session actually spent before tuning
	// (probes only when mapped; probes + full selection otherwise).
	SelectionEvals int
	// Quality is the verified best-config time.
	Quality float64
	// BaselineQuality is the same session without the mapper (full
	// selection), for comparison.
	BaselineQuality float64
	// BaselineSelectionEvals is the unmapped session's selection
	// spend.
	BaselineSelectionEvals int
}

// MappingExperiment evaluates the workload-mapping extension: known
// families (PageRank, KMeans) are tuned first to seed the mapper and
// caches; then *unseen-but-related* workloads arrive — a renamed
// graph job that behaves like PageRank, and TriangleCount, a genuine
// new graph workload. Mapping should route the lookalike to
// PageRank's selection for the price of a few probes; results for the
// genuinely new workload depend on whether its signature clears the
// threshold.
func MappingExperiment(cfg Config) []MappingRow {
	cfg = cfg.withDefaults()
	space := sparkSpace()

	// A renamed PageRank gets a fresh cache key with the same behavior.
	lookalike := renamedWorkload(scaledWorkload("PageRank", 7.5), "WebGraphRank")
	arrivals := []backend.Workload{lookalike, scaledWorkload("TriangleCount", 3)}

	run := func(withMapper bool) map[string]MappingRow {
		opts := cfg.robotuneOptions()
		var mapper *mapping.Mapper
		if withMapper {
			mapper = mapping.NewMapper(space, 8, cfg.Seed^0x3a11)
			opts.Mapper = mapper
			opts.MapThreshold = 0.9
		}
		rt := core.New(memo.NewStore(), opts)

		// Seed with the known families.
		for i, w := range []backend.Workload{scaledWorkload("PageRank", 5), scaledWorkload("KMeans", 200)} {
			ev := newSparkEval(w, cfg.Seed+uint64(i), backend.FaultPlan{})
			rt.Run(tuners.NewSession(ev, space, tuners.Request{Budget: cfg.Budget, Seed: cfg.Seed + uint64(i)}))
		}

		out := map[string]MappingRow{}
		for i, w := range arrivals {
			seed := cfg.Seed + 50 + uint64(i)
			ev := newSparkEval(w, seed, backend.FaultPlan{})
			res := rt.Run(tuners.NewSession(ev, space, tuners.Request{Budget: cfg.Budget, Seed: seed}))
			row := MappingRow{
				Workload:       w.WorkloadName(),
				SelectionEvals: res.SelectionEvals,
			}
			if res.Found {
				row.Quality = ev.Measure(res.Best, cfg.MeasureReps, seed*7+3)
			} else {
				row.Quality = 480
			}
			if withMapper {
				row.Mapped = res.SelectionEvals <= mapper.ProbeCount()
				if row.Mapped {
					if sel, ok := rt.Store().Selection(w.WorkloadName()); ok && len(sel) > 0 {
						// Identify the donor by matching selections.
						for _, known := range []string{"PageRank", "KMeans"} {
							if donor, ok := rt.Store().Selection(known); ok && sameStrings(donor, sel) {
								row.MatchedTo = known
							}
						}
					}
				}
			}
			out[w.WorkloadName()] = row
		}
		return out
	}

	with := run(true)
	without := run(false)

	var rows []MappingRow
	for _, w := range arrivals {
		r := with[w.WorkloadName()]
		b := without[w.WorkloadName()]
		r.BaselineQuality = b.Quality
		r.BaselineSelectionEvals = b.SelectionEvals
		rows = append(rows, r)
	}
	return rows
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RenderMapping prints the mapping experiment table.
func RenderMapping(rows []MappingRow) string {
	t := newTable(16, 8, 12, 12, 12, 12, 12)
	t.row("workload", "mapped", "matched to", "sel. evals", "baseline", "quality", "base qual")
	t.line()
	for _, r := range rows {
		matched := "-"
		if r.MatchedTo != "" {
			matched = r.MatchedTo
		}
		t.row(r.Workload,
			fmt.Sprintf("%v", r.Mapped),
			matched,
			fmt.Sprintf("%d", r.SelectionEvals),
			fmt.Sprintf("%d", r.BaselineSelectionEvals),
			fmt.Sprintf("%.1fs", r.Quality),
			fmt.Sprintf("%.1fs", r.BaselineQuality))
	}
	return "Workload mapping (extension) — unseen workloads inheriting known selections\n" + t.String()
}
