package experiments

import (
	"fmt"
	"math"

	"repro/internal/conf"
	"repro/internal/stats"
)

func sparkSpace() *conf.Space { return conf.SparkSpace() }

// Fig3Row is one bar group of Figure 3: per workload/dataset, each
// tuner's best execution time scaled to Random Search (lower is
// better; < 1 beats RS).
type Fig3Row struct {
	Workload   string
	DatasetIdx int
	// Scaled maps tuner name → mean quality / RS mean quality.
	Scaled map[string]float64
}

// Fig3 computes Figure 3 (execution time of suggested configurations
// scaled to Random Search).
func (c *Comparison) Fig3() []Fig3Row {
	var rows []Fig3Row
	for _, w := range WorkloadOrder {
		for di := 0; di < 3; di++ {
			rs := meanOf(pick(c.Sessions, "RandomSearch", w, di), func(s Session) float64 { return s.Quality })
			if rs == 0 {
				continue
			}
			row := Fig3Row{Workload: w, DatasetIdx: di, Scaled: map[string]float64{}}
			for _, tn := range TunerNames {
				q := meanOf(pick(c.Sessions, tn, w, di), func(s Session) float64 { return s.Quality })
				row.Scaled[tn] = q / rs
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// Fig4 computes Figure 4 (search cost scaled to Random Search).
// Following §5.3, ROBOTune's one-time parameter-selection cost is
// excluded (it is reported separately by SelectionCost).
func (c *Comparison) Fig4() []Fig3Row {
	var rows []Fig3Row
	for _, w := range WorkloadOrder {
		for di := 0; di < 3; di++ {
			rs := meanOf(pick(c.Sessions, "RandomSearch", w, di), func(s Session) float64 { return s.SearchCost })
			if rs == 0 {
				continue
			}
			row := Fig3Row{Workload: w, DatasetIdx: di, Scaled: map[string]float64{}}
			for _, tn := range TunerNames {
				cost := meanOf(pick(c.Sessions, tn, w, di), func(s Session) float64 { return s.SearchCost })
				row.Scaled[tn] = cost / rs
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// RenderScaled prints Figure 3/4-style rows.
func RenderScaled(title string, rows []Fig3Row) string {
	t := newTable(8, 10, 10, 10, 12)
	t.row("", TunerNames...)
	t.line()
	for _, r := range rows {
		cells := make([]string, len(TunerNames))
		for i, tn := range TunerNames {
			cells[i] = fmt.Sprintf("%.3f", r.Scaled[tn])
		}
		t.row(fmt.Sprintf("%s-D%d", ShortName[r.Workload], r.DatasetIdx+1), cells...)
	}
	return title + "\n" + t.String()
}

// SummarizeScaled returns mean and max advantage of ROBOTune over the
// named tuner across rows (the paper's headline "1.14x on average and
// up to 1.3x" style numbers). For Figure 3/4 semantics (lower is
// better), advantage = other / ROBOTune.
func SummarizeScaled(rows []Fig3Row, other string) (mean, max float64) {
	var sum float64
	n := 0
	for _, r := range rows {
		rt := r.Scaled["ROBOTune"]
		if rt <= 0 {
			continue
		}
		adv := r.Scaled[other] / rt
		sum += adv
		if adv > max {
			max = adv
		}
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), max
}

// Fig5Stats holds Figure 5's distribution comparison for one
// workload: each tuner's sampled-configuration execution times.
type Fig5Stats struct {
	Workload string
	// Summary maps tuner → descriptive statistics of all evaluated
	// configurations across datasets and repeats.
	Summary map[string]stats.Summary
}

// Fig5 computes the execution-time distribution of sampled
// configurations (Figure 5; the paper plots PR and KM).
func (c *Comparison) Fig5(workload string) Fig5Stats {
	out := Fig5Stats{Workload: workload, Summary: map[string]stats.Summary{}}
	for _, tn := range TunerNames {
		var all []float64
		for _, s := range pick(c.Sessions, tn, workload, -1) {
			all = append(all, s.Trace...)
		}
		out.Summary[tn] = stats.Summarize(all)
	}
	return out
}

// Render prints the Figure 5 distribution table with the paper's
// median and P90 ratios versus ROBOTune.
func (f Fig5Stats) Render() string {
	t := newTable(14, 8, 8, 8, 8, 8, 10, 10)
	t.row("tuner", "p25", "p50", "p75", "p90", "p99", "p50/RT", "p90/RT")
	t.line()
	rt := f.Summary["ROBOTune"]
	for _, tn := range TunerNames {
		s := f.Summary[tn]
		t.row(tn,
			fmt.Sprintf("%.0f", s.P25), fmt.Sprintf("%.0f", s.P50),
			fmt.Sprintf("%.0f", s.P75), fmt.Sprintf("%.0f", s.P90),
			fmt.Sprintf("%.0f", s.P99),
			fmt.Sprintf("%.2fx", s.P50/rt.P50), fmt.Sprintf("%.2fx", s.P90/rt.P90))
	}
	return fmt.Sprintf("Figure 5 — execution time distribution of sampled configurations (%s)\n%s",
		ShortName[f.Workload], t.String())
}

// Table2Row is one row of Table 2: the average iteration at which
// ROBOTune first reaches within the given percentage of its best
// achieved time.
type Table2Row struct {
	Workload                   string
	Within1, Within5, Within10 float64
}

// Table2 computes the search-speed table from ROBOTune's traces.
func (c *Comparison) Table2() []Table2Row {
	var rows []Table2Row
	for _, w := range WorkloadOrder {
		ss := pick(c.Sessions, "ROBOTune", w, -1)
		if len(ss) == 0 {
			continue
		}
		var i1, i5, i10 float64
		for _, s := range ss {
			best := stats.Min(s.Trace)
			i1 += float64(firstWithin(s.Trace, best, 0.01))
			i5 += float64(firstWithin(s.Trace, best, 0.05))
			i10 += float64(firstWithin(s.Trace, best, 0.10))
		}
		n := float64(len(ss))
		rows = append(rows, Table2Row{Workload: w, Within1: i1 / n, Within5: i5 / n, Within10: i10 / n})
	}
	return rows
}

// firstWithin returns the 1-based iteration at which the running
// minimum of trace first comes within frac of best.
func firstWithin(trace []float64, best, frac float64) int {
	threshold := best * (1 + frac)
	for i, v := range trace {
		if v <= threshold {
			return i + 1
		}
	}
	return len(trace)
}

// RenderTable2 prints Table 2.
func RenderTable2(rows []Table2Row) string {
	t := newTable(22, 10, 10, 10)
	t.row("Workload", "Within 1%", "Within 5%", "Within 10%")
	t.line()
	for _, r := range rows {
		t.row(r.Workload,
			fmt.Sprintf("%.0f", r.Within1),
			fmt.Sprintf("%.0f", r.Within5),
			fmt.Sprintf("%.0f", r.Within10))
	}
	return "Table 2 — avg. iterations to reach within x% of best achieved time\n" + t.String()
}

// Fig6Curves holds Figure 6: the running-minimum execution time per
// iteration for PageRank D1 (no memoized configs available) and D3
// (memoized configs from D1/D2 sessions), for every tuner.
type Fig6Curves struct {
	// Curves[dataset][tuner] is the mean running minimum at each
	// iteration; dataset keys are "D1" and "D3".
	Curves map[string]map[string][]float64
	// IterWithin5 maps dataset → ROBOTune's mean first iteration
	// within 5% of its final minimum (the paper quotes 58 for PR-D1
	// vs 21 for PR-D3).
	IterWithin5 map[string]float64
}

// Fig6 computes the memoization search-speed curves for the given
// workload (the paper uses PageRank).
func (c *Comparison) Fig6(workload string) Fig6Curves {
	out := Fig6Curves{
		Curves:      map[string]map[string][]float64{},
		IterWithin5: map[string]float64{},
	}
	for _, ds := range []struct {
		key string
		idx int
	}{{"D1", 0}, {"D3", 2}} {
		byTuner := map[string][]float64{}
		for _, tn := range TunerNames {
			ss := pick(c.Sessions, tn, workload, ds.idx)
			if len(ss) == 0 {
				continue
			}
			maxLen := 0
			for _, s := range ss {
				if len(s.Trace) > maxLen {
					maxLen = len(s.Trace)
				}
			}
			mean := make([]float64, maxLen)
			for i := 0; i < maxLen; i++ {
				var sum float64
				var n int
				for _, s := range ss {
					if i < len(s.Trace) {
						sum += runningMin(s.Trace, i)
						n++
					}
				}
				mean[i] = sum / float64(n)
			}
			byTuner[tn] = mean
		}
		out.Curves[ds.key] = byTuner

		var acc float64
		ss := pick(c.Sessions, "ROBOTune", workload, ds.idx)
		for _, s := range ss {
			best := stats.Min(s.Trace)
			acc += float64(firstWithin(s.Trace, best, 0.05))
		}
		if len(ss) > 0 {
			out.IterWithin5[ds.key] = acc / float64(len(ss))
		}
	}
	return out
}

func runningMin(trace []float64, upto int) float64 {
	m := math.Inf(1)
	for i := 0; i <= upto && i < len(trace); i++ {
		if trace[i] < m {
			m = trace[i]
		}
	}
	return m
}

// Render prints Figure 6 as a sampled series (every 10th iteration).
func (f Fig6Curves) Render(workload string) string {
	var out string
	for _, key := range []string{"D1", "D3"} {
		t := newTable(14, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7)
		hdr := []string{"iter:10", "20", "30", "40", "50", "60", "70", "80", "90", "100"}
		t.row("tuner", hdr...)
		t.line()
		for _, tn := range TunerNames {
			curve := f.Curves[key][tn]
			cells := make([]string, 10)
			for k := 0; k < 10; k++ {
				idx := (k+1)*10 - 1
				if idx < len(curve) {
					cells[k] = fmt.Sprintf("%.0f", curve[idx])
				} else if len(curve) > 0 {
					cells[k] = fmt.Sprintf("%.0f", curve[len(curve)-1])
				} else {
					cells[k] = "-"
				}
			}
			t.row(tn, cells...)
		}
		out += fmt.Sprintf("Figure 6 — min execution time per iteration, %s-%s (ROBOTune within 5%% at iter %.0f)\n%s\n",
			ShortName[workload], key, f.IterWithin5[key], t.String())
	}
	return out
}
