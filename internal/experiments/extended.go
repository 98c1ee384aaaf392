package experiments

import (
	"fmt"
	"slices"

	"repro/internal/stats"
)

// ExtendedTunerNames adds the extension baselines implemented beyond
// the paper (SuccessiveHalving over execution-time caps, and
// separable CMA-ES) to the paper's four.
var ExtendedTunerNames = []string{
	"ROBOTune", "BestConfig", "Gunther", "RandomSearch", "SuccessiveHalving", "CMAES",
}

// ExtendedRow summarizes one tuner across a workload set in the
// extended comparison.
type ExtendedRow struct {
	Tuner string
	// MeanQuality is the measured execution time of final configs,
	// averaged over workloads/datasets and scaled to Random Search.
	MeanQuality float64
	// MeanCost is the search cost scaled to Random Search.
	MeanCost float64
	// CostPerEval is the unscaled mean simulated seconds per
	// evaluation (SHA's early-kill advantage shows here).
	CostPerEval float64
}

// ExtendedComparison runs every tuner — the paper's four plus the
// extensions — on the named workloads' D1/D2 datasets and returns the
// per-tuner summary. It reuses the Session machinery so CSV export
// works on the result too.
func ExtendedComparison(cfg Config, workloads []string) ([]ExtendedRow, *Comparison) {
	cfg = cfg.withDefaults()
	if len(workloads) == 0 {
		workloads = []string{"PageRank", "KMeans", "TeraSort"}
	}
	g := tuningGrid{cfg: cfg, bk: sparkBackend(), datasets: 2}
	for _, wname := range workloads {
		if !slices.Contains(WorkloadOrder, wname) {
			continue
		}
		for _, tname := range ExtendedTunerNames {
			for rep := 0; rep < cfg.Repeats; rep++ {
				g.cells = append(g.cells, gridCell{wname, tname, rep})
			}
		}
	}
	comp := &Comparison{Config: cfg}
	comp.Sessions, _, _ = g.run("") // error-free without a ledger

	// Summaries scaled to RandomSearch per (workload, dataset).
	rows := make([]ExtendedRow, 0, len(ExtendedTunerNames))
	for _, tname := range ExtendedTunerNames {
		var qSum, cSum float64
		var n int
		var totalCost, totalEvals float64
		for _, wname := range workloads {
			for di := 0; di < 2; di++ {
				rsQ := meanOf(pick(comp.Sessions, "RandomSearch", wname, di), func(s Session) float64 { return s.Quality })
				rsC := meanOf(pick(comp.Sessions, "RandomSearch", wname, di), func(s Session) float64 { return s.SearchCost })
				ss := pick(comp.Sessions, tname, wname, di)
				if len(ss) == 0 || rsQ == 0 || rsC == 0 {
					continue
				}
				qSum += meanOf(ss, func(s Session) float64 { return s.Quality }) / rsQ
				cSum += meanOf(ss, func(s Session) float64 { return s.SearchCost }) / rsC
				n++
				for _, s := range ss {
					totalCost += s.SearchCost
					totalEvals += float64(len(s.Trace))
				}
			}
		}
		if n == 0 {
			continue
		}
		rows = append(rows, ExtendedRow{
			Tuner:       tname,
			MeanQuality: qSum / float64(n),
			MeanCost:    cSum / float64(n),
			CostPerEval: totalCost / stats.Max([]float64{totalEvals, 1}),
		})
	}
	return rows, comp
}

// RenderExtended prints the extended comparison table.
func RenderExtended(rows []ExtendedRow) string {
	t := newTable(18, 14, 12, 14)
	t.row("tuner", "quality vs RS", "cost vs RS", "cost per eval")
	t.line()
	for _, r := range rows {
		t.row(r.Tuner,
			fmt.Sprintf("%.3f", r.MeanQuality),
			fmt.Sprintf("%.3f", r.MeanCost),
			fmt.Sprintf("%.0fs", r.CostPerEval))
	}
	return "Extended comparison — paper tuners + SuccessiveHalving + CMA-ES (lower is better)\n" + t.String()
}
