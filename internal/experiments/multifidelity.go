package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/tuners"
)

// MultiFidelityRow is one workload's ROBOTune-vs-BOHB cost-to-quality
// comparison. ROBOTune tunes at full fidelity; BOHB climbs its
// fidelity ladder with cost-aware acquisition. The headline claim is a
// time-to-quality statement in the style of Table 2's
// iterations-to-within-X%: BOHB's incumbent reaches within 5% of
// ROBOTune's best-found execution time after spending at most half the
// simulated seconds ROBOTune's full-fidelity search consumed.
type MultiFidelityRow struct {
	Workload   string `json:"workload"`
	DatasetIdx int    `json:"dataset_idx"`
	// RoboBest / BOHBBest are each tuner's best full-fidelity completed
	// execution time; RoboCost / BOHBCost the total simulated seconds
	// each spent searching (sums over the session trace, so both sides
	// are in the same units; ROBOTune's one-time selection phase is
	// excluded, which only flatters the full-fidelity baseline).
	RoboBest  float64 `json:"robotune_best_s"`
	BOHBBest  float64 `json:"bohb_best_s"`
	RoboCost  float64 `json:"robotune_cost_s"`
	BOHBCost  float64 `json:"bohb_cost_s"`
	RoboEvals int     `json:"robotune_evals"`
	BOHBEvals int     `json:"bohb_evals"`
	// BOHBProxyEvals is how many of BOHB's trials ran at reduced
	// fidelity.
	BOHBProxyEvals int `json:"bohb_proxy_evals"`
	// RoboFallbacks / BOHBFallbacks count each tuner's BO iterations
	// that fell back to a uniform draw because the surrogate could not
	// propose (tuners.Result.SurrogateFallbacks).
	RoboFallbacks int `json:"robotune_surrogate_fallbacks"`
	BOHBFallbacks int `json:"bohb_surrogate_fallbacks"`
	// Reached reports BOHB's incumbent ever coming within 5% of
	// RoboBest; CostToReach is the simulated seconds it had spent at
	// that point (including every proxy trial), and CostRatio is
	// CostToReach / RoboCost — the acceptance target is <= 0.5.
	Reached     bool    `json:"reached_within_5pct"`
	CostToReach float64 `json:"cost_to_reach_s"`
	CostRatio   float64 `json:"cost_ratio"`
	// Pass reports the row meeting the headline criterion.
	Pass bool `json:"pass"`
}

// MultiFidelityWorkloads is the default workload set for the
// comparison.
var MultiFidelityWorkloads = []string{"PageRank", "KMeans", "TeraSort"}

// mfAxis picks each workload's proxy axis. Iterative workloads
// (PageRank's rank sweeps, KMeans' passes) have a per-stage cost
// floor, so scaling input volumes barely cheapens them — but a prefix
// of their many similar stages is both cheap and rank-faithful.
// TeraSort is the opposite: few heavyweight stages (truncation saves
// almost nothing) whose cost tracks data volume nearly linearly.
func mfAxis(workload string) tuners.FidelityAxis {
	if workload == "TeraSort" {
		return tuners.AxisInput
	}
	return tuners.AxisStage
}

// buildBOHB constructs the multi-fidelity tuner at the configured
// scale: the default 1/9 → 1/3 → 1 ladder along the workload's proxy
// axis, cost-aware acquisition on, and the same reduced BO models
// ROBOTune uses under Fast.
func (c Config) buildBOHB(axis tuners.FidelityAxis) tuners.BOHB {
	bocfg := c.robotuneOptions().BO
	bocfg.CostAware = true
	bocfg.Workers = c.Workers
	ladder := []float64(nil)
	if axis == tuners.AxisStage {
		ladder = []float64{1.0 / 27, 1.0 / 9, 1.0 / 3, 1}
	}
	return tuners.BOHB{Axis: axis, Ladder: ladder, BO: bocfg}
}

// traceCost sums a session trace — the session's full spend in
// simulated seconds, capped and failed trials included.
func traceCost(trace []float64) float64 {
	var sum float64
	for _, v := range trace {
		if !math.IsInf(v, 0) && !math.IsNaN(v) {
			sum += v
		}
	}
	return sum
}

// costToWithin walks a session trace and returns the cumulative spend
// at the first full-fidelity completion at or below target, and
// whether one occurred. Proxy trials contribute spend but can never
// satisfy the target — their seconds measure a scaled-down workload.
func costToWithin(res tuners.Result, target float64) (float64, bool) {
	var spent float64
	for i, v := range res.Trace {
		if !math.IsInf(v, 0) && !math.IsNaN(v) {
			spent += v
		}
		proxy := i < len(res.Proxy) && res.Proxy[i]
		completed := i < len(res.Completed) && res.Completed[i]
		if completed && !proxy && v <= target {
			return spent, true
		}
	}
	return spent, false
}

// RunMultiFidelity runs the ROBOTune-vs-BOHB comparison on the named
// workloads' D1 datasets (nil = MultiFidelityWorkloads). Both tuners
// start from the same seed; BOHB gets three times the trial count
// because the criterion is stated in simulated seconds, not trials —
// most of its trials are fractional-cost proxies, and the row records
// what BOHB actually spent, which is what the gate checks (the pass
// bar is a prefix of BOHB's own spend, so extra trials cannot fake a
// pass).
func RunMultiFidelity(cfg Config, workloads []string) []MultiFidelityRow {
	cfg = cfg.withDefaults()
	if len(workloads) == 0 {
		workloads = MultiFidelityWorkloads
	}
	g := tuningGrid{cfg: cfg, bk: sparkBackend()}

	rows := make([]MultiFidelityRow, 0, len(workloads))
	for _, wname := range workloads {
		const di = 0
		seed := cfg.Seed + uint64(di)*101 + hashName(wname+"multifidelity")
		tune := func(tn tuners.Tuner, budget int) tuners.Result {
			return tn.Run(tuners.NewSession(g.evaluator(wname, di, seed), g.bk.Space(),
				tuners.Request{Budget: budget, Seed: seed, Retry: cfg.Retry}))
		}
		robo := tune(core.New(memo.NewStore(), cfg.robotuneOptions()), cfg.Budget)
		bohb := tune(cfg.buildBOHB(mfAxis(wname)), 3*cfg.Budget)

		proxies := 0
		for _, p := range bohb.Proxy {
			if p {
				proxies++
			}
		}
		row := MultiFidelityRow{
			Workload:       wname,
			DatasetIdx:     di,
			RoboBest:       robo.BestSeconds,
			BOHBBest:       bohb.BestSeconds,
			RoboCost:       traceCost(robo.Trace),
			BOHBCost:       traceCost(bohb.Trace),
			RoboEvals:      robo.Evals,
			BOHBEvals:      bohb.Evals,
			BOHBProxyEvals: proxies,
			RoboFallbacks:  robo.SurrogateFallbacks,
			BOHBFallbacks:  bohb.SurrogateFallbacks,
		}
		if robo.Found {
			row.CostToReach, row.Reached = costToWithin(bohb, 1.05*robo.BestSeconds)
			if row.RoboCost > 0 {
				row.CostRatio = row.CostToReach / row.RoboCost
			}
			row.Pass = row.Reached && row.CostRatio <= 0.5
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderMultiFidelity prints the cost-to-quality comparison table.
func RenderMultiFidelity(rows []MultiFidelityRow) string {
	t := newTable(12, 10, 10, 10, 10, 11, 8, 6)
	t.row("workload", "RT best", "BOHB best", "RT cost", "BOHB cost", "reach cost", "ratio", "pass")
	t.line()
	for _, r := range rows {
		reach, pass := "never", "no"
		if r.Reached {
			reach = fmt.Sprintf("%.0fs", r.CostToReach)
		}
		if r.Pass {
			pass = "yes"
		}
		t.row(r.Workload,
			fmt.Sprintf("%.1fs", r.RoboBest),
			fmt.Sprintf("%.1fs", r.BOHBBest),
			fmt.Sprintf("%.0fs", r.RoboCost),
			fmt.Sprintf("%.0fs", r.BOHBCost),
			reach,
			fmt.Sprintf("%.3f", r.CostRatio),
			pass)
	}
	return "Multi-fidelity cost-to-quality — ROBOTune (full fidelity) vs BOHB (ladder + cost-aware EI)\n" +
		"target: reach within 5% of ROBOTune's best-found time at <= 50% of its simulated-seconds spend\n" + t.String()
}
