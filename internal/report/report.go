// Package report renders experiment results as a single Markdown
// document — the machine-generated counterpart of EXPERIMENTS.md,
// produced by `robobench -out report.md`.
package report

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/experiments"
)

// Report accumulates sections and renders Markdown.
type Report struct {
	title    string
	sections []section
}

type section struct {
	heading string
	body    string
}

// New creates a report with a title.
func New(title string) *Report { return &Report{title: title} }

// Add appends a section with preformatted body text (wrapped in a
// code fence to preserve table alignment).
func (r *Report) Add(heading, body string) {
	r.sections = append(r.sections, section{heading: heading, body: body})
}

// AddMarkdown appends a section whose body is already Markdown.
func (r *Report) AddMarkdown(heading, body string) {
	r.sections = append(r.sections, section{heading: heading, body: "\x00md\x00" + body})
}

// Render produces the final Markdown document.
func (r *Report) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s\n\nGenerated %s.\n", r.title, time.Now().UTC().Format("2006-01-02 15:04 MST"))
	for _, s := range r.sections {
		fmt.Fprintf(&sb, "\n## %s\n\n", s.heading)
		if body, ok := strings.CutPrefix(s.body, "\x00md\x00"); ok {
			sb.WriteString(strings.TrimRight(body, "\n"))
			sb.WriteByte('\n')
			continue
		}
		sb.WriteString("```\n")
		sb.WriteString(strings.TrimRight(s.body, "\n"))
		sb.WriteString("\n```\n")
	}
	return sb.String()
}

// ComparisonSummary renders the headline numbers of a comparison as a
// Markdown table: ROBOTune's mean/max advantage over each baseline
// for both quality (Figure 3) and search cost (Figure 4).
func ComparisonSummary(comp *experiments.Comparison) string {
	f3 := comp.Fig3()
	f4 := comp.Fig4()
	var sb strings.Builder
	sb.WriteString("| baseline | quality adv (mean) | quality adv (max) | cost adv (mean) | cost adv (max) |\n")
	sb.WriteString("|---|---|---|---|---|\n")
	for _, other := range []string{"BestConfig", "Gunther", "RandomSearch"} {
		qm, qx := experiments.SummarizeScaled(f3, other)
		cm, cx := experiments.SummarizeScaled(f4, other)
		fmt.Fprintf(&sb, "| %s | %.2fx | %.2fx | %.2fx | %.2fx |\n", other, qm, qx, cm, cx)
	}
	return sb.String()
}

// FullReport assembles Figures 2-9, Table 2 and §5.2 into one
// document. The comparison is taken as an argument so robobench can
// reuse the grid it already ran.
func FullReport(cfg experiments.Config, comp *experiments.Comparison) string {
	r := New("ROBOTune reproduction report")

	r.AddMarkdown("Headline comparison (ROBOTune advantage)", ComparisonSummary(comp))
	r.AddMarkdown("Statistical significance", SignificanceSummary(comp))
	r.Add("Figure 3 — best execution time scaled to Random Search",
		experiments.RenderScaled("(lower is better)", comp.Fig3()))
	r.Add("Figure 4 — search cost scaled to Random Search",
		experiments.RenderScaled("(lower is better)", comp.Fig4()))
	for _, w := range []string{"PageRank", "KMeans"} {
		r.Add(fmt.Sprintf("Figure 5 — sampled configuration distribution (%s)", w),
			comp.Fig5(w).Render())
	}
	r.Add("Figure 6 — memoization convergence (PageRank)",
		comp.Fig6("PageRank").Render("PageRank"))
	r.Add("Table 2 — search speed", experiments.RenderTable2(comp.Table2()))

	r.Add("Figure 2 — importance model comparison",
		experiments.Fig2ModelComparison(cfg, 200).Render())
	r.Add("Figure 7 — selection recall vs sample count",
		experiments.Fig7SelectionRecall(cfg, nil).Render())
	r.Add("Figure 8 — sampling behavior",
		experiments.Fig8SamplingBehavior(cfg).Render())
	r.Add("Figure 9 — GP response surface",
		experiments.Fig9ResponseSurface(cfg, nil, 0).Render())
	r.Add("§5.2 — default configuration comparison",
		experiments.RenderDefault(comp.VsDefault()))
	return r.Render()
}

// SignificanceSummary tests whether ROBOTune's final-configuration
// quality is statistically better than each baseline's across all
// sessions (Mann-Whitney U, two-sided), with a bootstrap CI for the
// mean quality ratio and the paired win rate.
func SignificanceSummary(comp *experiments.Comparison) string {
	type key struct {
		w       string
		ds, rep int
	}
	rt := map[key]float64{}
	byTuner := map[string]map[key]float64{}
	for _, s := range comp.Sessions {
		k := key{s.Workload, s.DatasetIdx, s.Repeat}
		if s.Tuner == "ROBOTune" {
			rt[k] = s.Quality
			continue
		}
		if byTuner[s.Tuner] == nil {
			byTuner[s.Tuner] = map[key]float64{}
		}
		byTuner[s.Tuner][k] = s.Quality
	}

	var sb strings.Builder
	sb.WriteString("| baseline | win rate | mean ratio (baseline/ROBOTune) | Mann-Whitney p |\n")
	sb.WriteString("|---|---|---|---|\n")
	for _, other := range []string{"BestConfig", "Gunther", "RandomSearch"} {
		var a, b, ratios []float64
		for k, rv := range rt {
			ov, ok := byTuner[other][k]
			if !ok {
				continue
			}
			a = append(a, rv)
			b = append(b, ov)
			if rv > 0 {
				ratios = append(ratios, ov/rv)
			}
		}
		if len(a) == 0 {
			continue
		}
		_, _, p := analysis.MannWhitney(a, b)
		iv := analysis.BootstrapMeanCI(ratios, 0.95, 7)
		fmt.Fprintf(&sb, "| %s | %.0f%% | %s | %.3f |\n",
			other, 100*analysis.WinRate(a, b), iv.String(), p)
	}
	return sb.String()
}
