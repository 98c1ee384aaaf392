// End-to-end integration tests pinning the paper's headline claims on
// a reduced grid — the fast standing guarantee that the reproduction
// still reproduces. The full-scale versions live in robobench.
package repro

import (
	"math"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/experiments"
)

// headlineGrid runs the comparison once per test binary invocation;
// every TestHeadline* test reads the same grid.
var headlineGrid = sync.OnceValue(func() *experiments.Comparison {
	cfg := experiments.Config{Seed: 1, Budget: 60, Repeats: 1, MeasureReps: 2, Fast: true}
	return experiments.RunComparison(cfg, func(w string) bool {
		return w == "PageRank" || w == "KMeans" || w == "TeraSort"
	})
})

func TestHeadlineQualityClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("integration grid is slow")
	}
	comp := headlineGrid()
	rows := comp.Fig3()
	// Abstract: "finds similar or better performing configurations
	// than contemporary tuning tools". At this reduced scale, demand
	// a mean advantage over every baseline.
	for _, other := range []string{"BestConfig", "RandomSearch"} {
		mean, _ := experiments.SummarizeScaled(rows, other)
		if mean < 1.0 {
			t.Errorf("ROBOTune mean quality advantage over %s = %.3f, want >= 1", other, mean)
		}
	}
	// And ROBOTune itself must beat RS on most rows.
	wins := 0
	for _, r := range rows {
		if r.Scaled["ROBOTune"] < 1 {
			wins++
		}
	}
	if wins*2 < len(rows) {
		t.Errorf("ROBOTune beat RS on only %d of %d rows", wins, len(rows))
	}
}

func TestHeadlineSearchCostClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("integration grid is slow")
	}
	comp := headlineGrid()
	rows := comp.Fig4()
	// Abstract: search cost improvement of ~1.5-1.6x on average (ours
	// overshoots; require at least the paper's figure).
	for _, other := range []string{"BestConfig", "Gunther", "RandomSearch"} {
		mean, _ := experiments.SummarizeScaled(rows, other)
		if mean < 1.3 {
			t.Errorf("ROBOTune mean cost advantage over %s = %.3f, want >= 1.3", other, mean)
		}
	}
	// Every single row should favor ROBOTune's cost.
	for _, r := range rows {
		if r.Scaled["ROBOTune"] >= 1 {
			t.Errorf("%s-D%d: ROBOTune cost ratio %.3f >= 1",
				experiments.ShortName[r.Workload], r.DatasetIdx+1, r.Scaled["ROBOTune"])
		}
	}
}

func TestHeadlineDistributionClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("integration grid is slow")
	}
	comp := headlineGrid()
	// §5.3: the baselines' sampled-configuration medians sit well
	// above ROBOTune's (paper: 1.35-1.53x; ours larger).
	for _, w := range []string{"PageRank", "KMeans"} {
		f5 := comp.Fig5(w)
		rt := f5.Summary["ROBOTune"].P50
		for _, other := range []string{"BestConfig", "Gunther", "RandomSearch"} {
			ratio := f5.Summary[other].P50 / rt
			if ratio < 1.2 {
				t.Errorf("%s: %s median ratio %.2f, want > 1.2", w, other, ratio)
			}
		}
	}
}

func TestHeadlineSignificance(t *testing.T) {
	if testing.Short() {
		t.Skip("integration grid is slow")
	}
	comp := headlineGrid()
	// Pool per-session qualities and check ROBOTune's distribution is
	// stochastically smaller than Random Search's.
	var rt, rs []float64
	for _, s := range comp.Sessions {
		switch s.Tuner {
		case "ROBOTune":
			rt = append(rt, s.Quality)
		case "RandomSearch":
			rs = append(rs, s.Quality)
		}
	}
	if len(rt) == 0 || len(rs) == 0 {
		t.Fatal("missing sessions")
	}
	_, z, p := analysis.MannWhitney(rt, rs)
	if math.IsNaN(p) {
		t.Fatal("Mann-Whitney undefined")
	}
	if z >= 0 {
		t.Errorf("ROBOTune not stochastically better: z=%.2f p=%.3f", z, p)
	}
}
