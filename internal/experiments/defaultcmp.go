package experiments

import (
	"fmt"
	"math"
)

// DefaultRow is one workload/dataset entry of the §5.2 comparison
// with Spark's out-of-the-box configuration.
type DefaultRow struct {
	Workload   string
	DatasetIdx int
	// DefaultSeconds is the default configuration's (uncapped)
	// execution time; NaN when it fails.
	DefaultSeconds float64
	// DefaultFails is true when the default OOMs or errors (the paper
	// reports this for PR, CC and the larger TeraSort inputs).
	DefaultFails bool
	// TunedSeconds is the mean measured quality of ROBOTune's final
	// configurations.
	TunedSeconds float64
	// Speedup is DefaultSeconds / TunedSeconds (NaN when the default
	// fails — the speedup is effectively infinite).
	Speedup float64
}

// VsDefault reproduces §5.2's "Comparison with the default": each
// (workload, dataset) the grid tuned compares the mean measured
// quality of its ROBOTune sessions with one run of the Spark default.
// The default is outside the search, so it runs without the tuning-time
// cap, on the seed the grid measures qualities with.
func (c *Comparison) VsDefault() []DefaultRow {
	def := sparkSpace().Default()
	grid := sparkGrid()
	var rows []DefaultRow
	for _, wname := range WorkloadOrder {
		for di := 0; di < 3; di++ {
			ss := pick(c.Sessions, "ROBOTune", wname, di)
			if len(ss) == 0 {
				continue
			}
			row := DefaultRow{
				Workload:       wname,
				DatasetIdx:     di,
				TunedSeconds:   meanOf(ss, func(s Session) float64 { return s.Quality }),
				DefaultSeconds: math.NaN(),
				Speedup:        math.NaN(),
			}
			out := runOnce(grid[wname][di], def, c.Config.measureSeed(di), math.Inf(1))
			if out.OOM || out.Infeasible {
				row.DefaultFails = true
			} else {
				row.DefaultSeconds = out.Seconds
				row.Speedup = row.DefaultSeconds / row.TunedSeconds
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// RenderDefault prints the §5.2 default-comparison table.
func RenderDefault(rows []DefaultRow) string {
	t := newTable(8, 14, 12, 10)
	t.row("", "default", "tuned", "speedup")
	t.line()
	for _, r := range rows {
		def, sp := "FAILS (OOM)", "-"
		if !r.DefaultFails {
			def = fmt.Sprintf("%.0fs", r.DefaultSeconds)
			sp = fmt.Sprintf("%.1fx", r.Speedup)
		}
		t.row(fmt.Sprintf("%s-D%d", ShortName[r.Workload], r.DatasetIdx+1), def, fmt.Sprintf("%.0fs", r.TunedSeconds), sp)
	}
	return "§5.2 — tuned configuration vs Spark default\n" + t.String()
}
