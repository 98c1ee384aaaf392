package experiments

import "fmt"

// AmortizationRow reports cumulative total cost (selection + tuning)
// after tuning the first k datasets of a workload family.
type AmortizationRow struct {
	Datasets int
	// Cumulative total cost per tuner, in simulated seconds. For
	// ROBOTune this includes the one-time selection cost — the point
	// of the experiment is when that overhead pays for itself.
	Total map[string]float64
}

// Amortization quantifies §5.5's closing claim: "ROBOTune is
// preferable in terms of cost when multiple datasets (e.g. two or
// more) of a workload are tuned, as the parameter selection cost is
// amortized across tuning sessions." Each grid cell tunes D1, D2, D3
// of the workload in sequence (ROBOTune keeps its caches); row k is
// each tuner's mean cumulative cost over the cell's first k sessions,
// including ROBOTune's selection phase. It returns nil when the grid
// lacks a tuner's sessions for the workload.
func (c *Comparison) Amortization(workload string) []AmortizationRow {
	rows := make([]AmortizationRow, 3)
	for di := range rows {
		rows[di] = AmortizationRow{Datasets: di + 1, Total: map[string]float64{}}
	}
	for _, tname := range TunerNames {
		running := 0.0
		for di := range rows {
			ss := pick(c.Sessions, tname, workload, di)
			if len(ss) == 0 {
				return nil
			}
			running += meanOf(ss, func(s Session) float64 { return s.SearchCost + s.SelectionCost })
			rows[di].Total[tname] = running
		}
	}
	return rows
}

// RenderAmortization prints the cumulative-cost table and the
// crossover summary.
func RenderAmortization(workload string, rows []AmortizationRow) string {
	t := newTable(10, 12, 12, 12, 14)
	t.row("datasets", TunerNames...)
	t.line()
	for _, r := range rows {
		cells := make([]string, len(TunerNames))
		for i, tn := range TunerNames {
			cells[i] = fmt.Sprintf("%.0f", r.Total[tn])
		}
		t.row(fmt.Sprintf("%d", r.Datasets), cells...)
	}
	out := fmt.Sprintf("§5.5 amortization — cumulative cost incl. ROBOTune's one-time selection (%s)\n%s",
		workload, t.String())
	// Crossover note: first row where ROBOTune (with its selection
	// overhead included) is cheapest.
	for _, r := range rows {
		rt := r.Total["ROBOTune"]
		cheapest := true
		for _, tn := range TunerNames[1:] {
			if r.Total[tn] < rt {
				cheapest = false
			}
		}
		if cheapest {
			out += fmt.Sprintf("ROBOTune's total (selection included) is cheapest from %d dataset(s) on.\n", r.Datasets)
			break
		}
	}
	return out
}
