package report

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestRenderStructure(t *testing.T) {
	r := New("My title")
	r.Add("Section A", "line one\nline two\n")
	r.AddMarkdown("Section B", "| a | b |\n|---|---|\n| 1 | 2 |\n")
	out := r.Render()
	if !strings.HasPrefix(out, "# My title") {
		t.Errorf("missing title: %q", out[:40])
	}
	for _, want := range []string{"## Section A", "## Section B", "```\nline one", "| a | b |"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
	// Markdown sections must not be fenced.
	if strings.Contains(out, "```\n| a | b |") {
		t.Error("markdown section was fenced")
	}
}

func TestComparisonSummary(t *testing.T) {
	cfg := experiments.Config{Seed: 5, Budget: 25, Repeats: 1, MeasureReps: 2, Fast: true}
	comp := experiments.RunComparison(cfg, func(w string) bool { return w == "TeraSort" })
	md := ComparisonSummary(comp)
	for _, want := range []string{"BestConfig", "Gunther", "RandomSearch", "| baseline |"} {
		if !strings.Contains(md, want) {
			t.Errorf("summary missing %q:\n%s", want, md)
		}
	}
	if strings.Count(md, "\n") != 5 {
		t.Errorf("summary should have header+rule+3 rows:\n%s", md)
	}
}

func TestFullReportSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full report is slow")
	}
	cfg := experiments.Config{Seed: 5, Budget: 25, Repeats: 1, MeasureReps: 2, Fast: true}
	comp := experiments.RunComparison(cfg, func(w string) bool { return w == "PageRank" || w == "KMeans" })
	out := FullReport(cfg, comp)
	for _, want := range []string{
		"Figure 2", "Figure 3", "Figure 4", "Figure 5", "Figure 6",
		"Figure 7", "Figure 8", "Figure 9", "Table 2", "default configuration",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestSignificanceSummary(t *testing.T) {
	cfg := experiments.Config{Seed: 5, Budget: 25, Repeats: 2, MeasureReps: 2, Fast: true}
	comp := experiments.RunComparison(cfg, func(w string) bool { return w == "TeraSort" })
	md := SignificanceSummary(comp)
	for _, want := range []string{"win rate", "Mann-Whitney", "BestConfig", "RandomSearch"} {
		if !strings.Contains(md, want) {
			t.Errorf("missing %q:\n%s", want, md)
		}
	}
}
