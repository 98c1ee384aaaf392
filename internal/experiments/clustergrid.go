package experiments

import (
	"fmt"

	"repro/internal/backend"
)

// This file is the second backend's evaluation grid: the same four
// tuners that compete on the Spark simulator tune the cluster
// scheduler's placement policy instead. Everything goes through the
// backend seam — the grid resolves "clustersim" in the registry and
// never names a simulator type, so it doubles as a living check that
// the tuner stack is genuinely backend-agnostic.

// ClusterComparison holds the scheduler-policy tuning grid: every
// tuner tunes every workload family's three traces (D1..D3), Repeats
// times.
type ClusterComparison struct {
	Config Config
	// Workloads is the family report order, taken from the backend's
	// own catalog (optionally filtered).
	Workloads []string
	// Cap is the backend's default per-evaluation cap; sessions that
	// find nothing report it as their quality.
	Cap      float64
	Sessions []Session
	// Baseline maps "family/Dx" to the objective of the space's
	// default configuration, measured with the same shared seeds as
	// the tuned configurations — so "gain over default" compares like
	// with like.
	Baseline map[string]float64
}

// clusterBackend returns the registered cluster-scheduler backend.
func clusterBackend() backend.Backend {
	b, err := backend.Lookup("clustersim")
	if err != nil {
		panic(fmt.Sprintf("experiments: clustersim backend not registered: %v", err))
	}
	return b
}

// RunClusterComparison executes the grid. The filter (nil = all)
// restricts workload families by name. Like RunComparison it runs on
// schedule.RunCampaign, up to cfg.Concurrency cells at once, and is
// bit-reproducible for a fixed Config at any concurrency.
func RunClusterComparison(cfg Config, filter func(workload string) bool) *ClusterComparison {
	cfg = cfg.withDefaults()
	bk := clusterBackend()
	out := &ClusterComparison{
		Config:   cfg,
		Cap:      bk.DefaultCap(),
		Baseline: map[string]float64{},
	}
	for _, name := range bk.Workloads() {
		if filter == nil || filter(name) {
			out.Workloads = append(out.Workloads, name)
		}
	}
	g := tuningGrid{cfg: cfg, bk: bk, datasets: 3, salt: "cluster"}

	// Baseline: the space default under measurement seeds shared with
	// the tuned configurations (fault-free, like Spark's quality
	// measurement).
	def := bk.Space().Default()
	for _, wname := range out.Workloads {
		for di := 0; di < 3; di++ {
			out.Baseline[fmt.Sprintf("%s/D%d", wname, di+1)] = g.measure(wname, di, def)
		}
	}

	for rep := 0; rep < cfg.Repeats; rep++ {
		for _, wname := range out.Workloads {
			for _, tname := range TunerNames {
				g.cells = append(g.cells, gridCell{wname, tname, rep})
			}
		}
	}
	out.Sessions, _, _ = g.run("") // error-free without a ledger
	return out
}

// GainOverDefault returns the mean relative improvement of a tuner's
// final policy over the default configuration across the whole grid
// (0.25 = the tuned policy's objective is 25% below the default's).
func (c *ClusterComparison) GainOverDefault(tuner string) float64 {
	var sum float64
	var n int
	for _, wname := range c.Workloads {
		for di := 0; di < 3; di++ {
			base := c.Baseline[fmt.Sprintf("%s/D%d", wname, di+1)]
			if base <= 0 {
				continue
			}
			q := meanOf(pick(c.Sessions, tuner, wname, di), func(s Session) float64 { return s.Quality })
			if q == 0 {
				continue
			}
			sum += (base - q) / base
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// RenderClusterComparison formats the grid: per workload trace the
// default policy's objective, every tuner's mean tuned objective, and
// ROBOTune's gain over the default.
func RenderClusterComparison(c *ClusterComparison) string {
	t := newTable(16, 9, 9, 9, 9, 9, 8)
	t.sb.WriteString("Scheduler-policy tuning (clustersim backend) — objective seconds of the final policy, lower is better\n")
	cells := []string{"default"}
	cells = append(cells, TunerNames...)
	cells = append(cells, "RT gain")
	t.row("workload", cells...)
	t.line()
	for _, wname := range c.Workloads {
		for di := 0; di < 3; di++ {
			key := fmt.Sprintf("%s/D%d", wname, di+1)
			base := c.Baseline[key]
			row := []string{fmt.Sprintf("%.1f", base)}
			var rt float64
			for _, tn := range TunerNames {
				q := meanOf(pick(c.Sessions, tn, wname, di), func(s Session) float64 { return s.Quality })
				if tn == "ROBOTune" {
					rt = q
				}
				row = append(row, fmt.Sprintf("%.1f", q))
			}
			gain := "-"
			if base > 0 && rt > 0 {
				gain = fmt.Sprintf("%.1f%%", 100*(base-rt)/base)
			}
			t.row(key, append(row, gain)...)
		}
	}
	t.line()
	t.row("mean RT gain over default", fmt.Sprintf("%.1f%%", 100*c.GainOverDefault("ROBOTune")))
	return t.String()
}
