package experiments

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// tinyConfig keeps experiment tests fast: small budgets, one repeat.
func tinyConfig() Config {
	return Config{Seed: 3, Budget: 30, Repeats: 1, MeasureReps: 2, Fast: true}
}

func onlyWorkload(name string) func(string) bool {
	return func(w string) bool { return w == name }
}

// tinyTeraSort and tinyKMeans are the single-workload grids at
// tinyConfig scale, run once per test binary and shared (read-only)
// by the tests below; TestComparisonDeterministic still re-runs the
// TeraSort grid fresh and compares it with the shared one.
var (
	tinyTeraSort = sync.OnceValue(func() *Comparison { return RunComparison(tinyConfig(), onlyWorkload("TeraSort")) })
	tinyKMeans   = sync.OnceValue(func() *Comparison { return RunComparison(tinyConfig(), onlyWorkload("KMeans")) })
)

func TestRunComparisonShape(t *testing.T) {
	comp := tinyTeraSort()
	// 4 tuners x 1 workload x 3 datasets x 1 repeat.
	if len(comp.Sessions) != 12 {
		t.Fatalf("sessions = %d, want 12", len(comp.Sessions))
	}
	for _, s := range comp.Sessions {
		if s.Workload != "TeraSort" {
			t.Fatalf("unexpected workload %q", s.Workload)
		}
		if len(s.Trace) == 0 || len(s.Trace) > 30 {
			t.Errorf("%s D%d trace length %d", s.Tuner, s.DatasetIdx+1, len(s.Trace))
		}
		if s.SearchCost <= 0 {
			t.Errorf("%s D%d search cost %v", s.Tuner, s.DatasetIdx+1, s.SearchCost)
		}
		if s.Quality <= 0 || s.Quality > 480 {
			t.Errorf("%s D%d quality %v", s.Tuner, s.DatasetIdx+1, s.Quality)
		}
	}
}

func TestComparisonDeterministic(t *testing.T) {
	a := tinyTeraSort()
	b := RunComparison(tinyConfig(), onlyWorkload("TeraSort"))
	for i := range a.Sessions {
		if a.Sessions[i].Quality != b.Sessions[i].Quality ||
			a.Sessions[i].SearchCost != b.Sessions[i].SearchCost {
			t.Fatalf("session %d differs across identical runs", i)
		}
	}
}

// TestComparisonConcurrencyParity asserts the campaign scheduler's
// contract end to end: the full session list — order included — is
// bit-identical whether the grid runs serially or four tasks wide.
func TestComparisonConcurrencyParity(t *testing.T) {
	serial := tinyKMeans()
	wideCfg := tinyConfig()
	wideCfg.Concurrency = 4
	wide := RunComparison(wideCfg, onlyWorkload("KMeans"))

	if len(serial.Sessions) != len(wide.Sessions) {
		t.Fatalf("session count %d vs %d", len(serial.Sessions), len(wide.Sessions))
	}
	for i := range serial.Sessions {
		a, b := serial.Sessions[i], wide.Sessions[i]
		if a.Tuner != b.Tuner || a.Workload != b.Workload ||
			a.DatasetIdx != b.DatasetIdx || a.Repeat != b.Repeat {
			t.Fatalf("session %d identity differs: %+v vs %+v", i, a, b)
		}
		if a.Quality != b.Quality || a.Found != b.Found ||
			a.SearchCost != b.SearchCost || a.SelectionCost != b.SelectionCost {
			t.Fatalf("session %d numbers differ: %+v vs %+v", i, a, b)
		}
		if len(a.Trace) != len(b.Trace) {
			t.Fatalf("session %d trace length %d vs %d", i, len(a.Trace), len(b.Trace))
		}
		for j := range a.Trace {
			if a.Trace[j] != b.Trace[j] {
				t.Fatalf("session %d trace[%d] %v vs %v", i, j, a.Trace[j], b.Trace[j])
			}
		}
	}
}

func TestFig3Fig4Derivations(t *testing.T) {
	comp := tinyKMeans()
	f3 := comp.Fig3()
	if len(f3) != 3 {
		t.Fatalf("fig3 rows = %d, want 3 (D1-D3)", len(f3))
	}
	for _, r := range f3 {
		if v := r.Scaled["RandomSearch"]; math.Abs(v-1) > 1e-9 {
			t.Errorf("RS must scale to 1, got %v", v)
		}
		for _, tn := range TunerNames {
			if r.Scaled[tn] <= 0 || math.IsNaN(r.Scaled[tn]) {
				t.Errorf("%s scaled = %v", tn, r.Scaled[tn])
			}
		}
	}
	f4 := comp.Fig4()
	if len(f4) != 3 {
		t.Fatalf("fig4 rows = %d", len(f4))
	}
	// ROBOTune's guard and BO make its search cost lower than RS.
	var rt float64
	for _, r := range f4 {
		rt += r.Scaled["ROBOTune"]
	}
	if rt/3 >= 1 {
		t.Errorf("ROBOTune mean cost ratio %v, expected < 1", rt/3)
	}
	out := RenderScaled("t", f3)
	if !strings.Contains(out, "KM-D1") {
		t.Error("render missing row label")
	}
	mean, max := SummarizeScaled(f4, "RandomSearch")
	if mean <= 0 || max < mean {
		t.Errorf("summary mean=%v max=%v", mean, max)
	}
}

func TestFig5Derivation(t *testing.T) {
	comp := tinyKMeans()
	f5 := comp.Fig5("KMeans")
	for _, tn := range TunerNames {
		s := f5.Summary[tn]
		if s.N == 0 || s.P50 <= 0 {
			t.Errorf("%s summary: %+v", tn, s)
		}
		if s.P90 < s.P50 {
			t.Errorf("%s P90 < P50", tn)
		}
	}
	if out := f5.Render(); !strings.Contains(out, "Figure 5") {
		t.Error("render missing title")
	}
}

func TestTable2Derivation(t *testing.T) {
	comp := tinyTeraSort()
	rows := comp.Table2()
	if len(rows) != 1 {
		t.Fatalf("table2 rows = %d", len(rows))
	}
	r := rows[0]
	// Tighter targets cannot be reached earlier than looser ones.
	if r.Within1 < r.Within5 || r.Within5 < r.Within10 {
		t.Errorf("iteration ordering violated: %+v", r)
	}
	if r.Within10 < 1 || r.Within1 > 30 {
		t.Errorf("iterations out of range: %+v", r)
	}
	if out := RenderTable2(rows); !strings.Contains(out, "TeraSort") {
		t.Error("render missing workload")
	}
}

func TestFirstWithin(t *testing.T) {
	trace := []float64{100, 90, 80, 80, 70}
	if got := firstWithin(trace, 70, 0.01); got != 5 {
		t.Errorf("within 1%% = %d, want 5", got)
	}
	if got := firstWithin(trace, 70, 0.15); got != 3 {
		t.Errorf("within 15%% = %d, want 3 (80 <= 80.5)", got)
	}
	if got := firstWithin(trace, 70, 0.5); got != 1 {
		t.Errorf("within 50%% = %d, want 1", got)
	}
}

func TestFig6Derivation(t *testing.T) {
	comp := RunComparison(tinyConfig(), onlyWorkload("PageRank"))
	f6 := comp.Fig6("PageRank")
	for _, key := range []string{"D1", "D3"} {
		curves := f6.Curves[key]
		for _, tn := range TunerNames {
			c := curves[tn]
			if len(c) == 0 {
				t.Fatalf("%s %s: empty curve", key, tn)
			}
			for i := 1; i < len(c); i++ {
				if c[i] > c[i-1]+1e-9 {
					t.Fatalf("%s %s: running min increased at %d", key, tn, i)
				}
			}
		}
		if f6.IterWithin5[key] < 1 {
			t.Errorf("%s IterWithin5 = %v", key, f6.IterWithin5[key])
		}
	}
	if out := f6.Render("PageRank"); !strings.Contains(out, "PR-D1") {
		t.Error("render missing dataset")
	}
}

func TestFig2SmallScale(t *testing.T) {
	cfg := tinyConfig()
	res := Fig2ModelComparison(cfg, 60)
	if len(res.Labels) != 6 {
		t.Fatalf("labels = %v", res.Labels)
	}
	for _, label := range res.Labels {
		scores := res.Scores[label]
		for _, m := range Fig2Models {
			if _, ok := scores[m]; !ok {
				t.Fatalf("%s missing model %s", label, m)
			}
		}
		// The paper's finding: tree models beat linear models.
		tree := math.Max(scores["RandomForest"], scores["ExtraTrees"])
		linear := math.Max(scores["Lasso"], scores["ElasticNet"])
		if tree <= linear {
			t.Errorf("%s: tree R2 %.3f <= linear R2 %.3f", label, tree, linear)
		}
	}
	if out := res.Render(); !strings.Contains(out, "RandomForest") {
		t.Error("render missing model")
	}
}

func TestFig7SmallScale(t *testing.T) {
	cfg := tinyConfig()
	res := Fig7SelectionRecall(cfg, []int{80, 40, 20})
	if len(res.Recall) != 5 {
		t.Fatalf("recall workloads = %d", len(res.Recall))
	}
	for w, recs := range res.Recall {
		if len(recs) != 3 {
			t.Fatalf("%s: %d recall points", w, len(recs))
		}
		// Recall at the ground-truth count itself is exactly 1.
		if recs[0] != 1 {
			t.Errorf("%s: recall at truth count = %v", w, recs[0])
		}
		for _, r := range recs {
			if r < 0 || r > 1 {
				t.Errorf("%s: recall %v out of [0,1]", w, r)
			}
		}
	}
	if out := res.Render(); !strings.Contains(out, "Figure 7") {
		t.Error("render missing title")
	}
}

func TestFig8SmallScale(t *testing.T) {
	res := Fig8SamplingBehavior(tinyConfig())
	for _, tn := range TunerNames {
		pts := res.Points[tn]
		if len(pts) == 0 || len(pts) > 30 {
			t.Errorf("%s: %d points (budget 30)", tn, len(pts))
		}
		for _, p := range pts {
			if p[0] < 1 || p[0] > 32 {
				t.Errorf("%s: cores %v out of range", tn, p[0])
			}
			if p[1] < 1024 || p[1] > 184320 {
				t.Errorf("%s: memory %v out of range", tn, p[1])
			}
		}
	}
	if out := res.Render(); !strings.Contains(out, "ROBOTune") {
		t.Error("render missing tuner")
	}
}

func TestFig9SmallScale(t *testing.T) {
	res := Fig9ResponseSurface(tinyConfig(), []int{25, 30}, 6)
	if len(res.Surfaces) != 2 {
		t.Fatalf("surfaces = %d", len(res.Surfaces))
	}
	if !res.HasPlane {
		t.Skip("executor plane not selected in this tiny run")
	}
	for i, s := range res.Surfaces {
		if s == nil {
			continue
		}
		if len(s) != 6 || len(s[0]) != 6 {
			t.Fatalf("surface %d shape %dx%d", i, len(s), len(s[0]))
		}
		for _, row := range s {
			for _, v := range row {
				if math.IsNaN(v) || v <= 0 {
					t.Fatalf("surface value %v", v)
				}
			}
		}
	}
	if out := res.Render(); !strings.Contains(out, "Figure 9") {
		t.Error("render missing title")
	}
}

// tinyGrid is the all-workload comparison at tinyConfig scale, run
// once per test binary and shared by the §5.2 and §5.5 tests.
var tinyGrid = sync.OnceValue(func() *Comparison { return RunComparison(tinyConfig(), nil) })

func TestDefaultComparisonSmallScale(t *testing.T) {
	rows := tinyGrid().VsDefault()
	if len(rows) != 15 {
		t.Fatalf("rows = %d, want 15", len(rows))
	}
	// §5.2: default OOMs PR and CC; TS D2/D3 error; KM slow but runs;
	// LR runs and tuning still beats it.
	for _, r := range rows {
		switch r.Workload {
		case "PageRank", "ConnectedComponents":
			if !r.DefaultFails {
				t.Errorf("%s-D%d default should fail", r.Workload, r.DatasetIdx+1)
			}
		case "KMeans":
			if r.DefaultFails {
				t.Errorf("KMeans default should complete")
			}
			if !math.IsNaN(r.Speedup) && r.Speedup < 3 {
				t.Errorf("KMeans speedup %v, want large", r.Speedup)
			}
		case "LogisticRegression":
			if r.DefaultFails {
				t.Errorf("LR-D%d default should complete", r.DatasetIdx+1)
			}
			if !(r.Speedup > 1) {
				t.Errorf("LR-D%d speedup %v, want > 1", r.DatasetIdx+1, r.Speedup)
			}
		case "TeraSort":
			wantFail := r.DatasetIdx >= 1
			if r.DefaultFails != wantFail {
				t.Errorf("TS-D%d default fails=%v want %v", r.DatasetIdx+1, r.DefaultFails, wantFail)
			}
		}
	}
	if out := RenderDefault(rows); !strings.Contains(out, "FAILS") {
		t.Error("render missing failure marker")
	}
}

func TestHashNameStable(t *testing.T) {
	if hashName("PageRank") != hashName("PageRank") {
		t.Error("hash not stable")
	}
	if hashName("PageRank") == hashName("KMeans") {
		t.Error("suspicious hash collision")
	}
}

func TestCSVExports(t *testing.T) {
	comp := tinyTeraSort()

	var sb strings.Builder
	if err := comp.WriteSessionsCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 1+12 { // header + 4 tuners x 3 datasets
		t.Fatalf("sessions CSV rows = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "tuner,workload,dataset") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(sb.String(), "ROBOTune,TeraSort,D1") {
		t.Error("missing expected row")
	}

	sb.Reset()
	if err := WriteScaledCSV(&sb, comp.Fig3()); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 1+3 {
		t.Fatalf("scaled CSV rows = %d", len(lines))
	}
	if !strings.Contains(lines[1], "TS,D1") {
		t.Errorf("row = %q", lines[1])
	}

	sb.Reset()
	if err := comp.WriteTracesCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(sb.String()), "\n")
	// header + sum of all traces (12 sessions x <=30 evals).
	if len(lines) < 100 || len(lines) > 1+12*30 {
		t.Fatalf("traces CSV rows = %d", len(lines))
	}
}

// TestExtendedComparison: the extended grid's summaries are sane, and
// its sessions are bit-identical serial and four cells wide.
func TestExtendedComparison(t *testing.T) {
	rows, comp := ExtendedComparison(tinyConfig(), []string{"TeraSort"})
	wideCfg := tinyConfig()
	wideCfg.Concurrency = 4
	wideRows, wide := ExtendedComparison(wideCfg, []string{"TeraSort"})
	sameSessions(t, "extended serial vs wide", wide.Sessions, comp.Sessions)
	if !reflect.DeepEqual(wideRows, rows) {
		t.Fatalf("extended rows differ across widths: %+v vs %+v", wideRows, rows)
	}
	if len(rows) != len(ExtendedTunerNames) {
		t.Fatalf("rows = %d, want %d", len(rows), len(ExtendedTunerNames))
	}
	byName := map[string]ExtendedRow{}
	for _, r := range rows {
		byName[r.Tuner] = r
		if r.MeanQuality <= 0 || r.MeanCost <= 0 || r.CostPerEval <= 0 {
			t.Errorf("%s: non-positive metrics %+v", r.Tuner, r)
		}
	}
	if math.Abs(byName["RandomSearch"].MeanQuality-1) > 1e-9 {
		t.Errorf("RS quality must scale to 1, got %v", byName["RandomSearch"].MeanQuality)
	}
	// SHA's early-kill schedule must be cheaper per evaluation than RS.
	if byName["SuccessiveHalving"].CostPerEval >= byName["RandomSearch"].CostPerEval {
		t.Errorf("SHA per-eval cost %v >= RS %v",
			byName["SuccessiveHalving"].CostPerEval, byName["RandomSearch"].CostPerEval)
	}
	// 6 tuners x 1 workload x 2 datasets x 1 repeat.
	if len(comp.Sessions) != 12 {
		t.Errorf("sessions = %d", len(comp.Sessions))
	}
	if out := RenderExtended(rows); !strings.Contains(out, "CMAES") {
		t.Error("render missing tuner")
	}
}

func TestAblationsSmallScale(t *testing.T) {
	cfg := tinyConfig()
	cfg.Budget = 60 // ablations halve it
	res := Ablations(cfg)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Metric <= 0 || math.IsNaN(r.Metric) || r.Baseline <= 0 || math.IsNaN(r.Baseline) {
			t.Errorf("%s: bad values %+v", r.Name, r)
		}
	}
	// The guard must not increase cost, and selection must not lose
	// badly to raw 44-dim BO.
	for _, r := range res.Rows {
		switch r.Name {
		case "guard on vs off":
			if r.Metric > r.Baseline*1.05 {
				t.Errorf("guard increased cost: %+v", r)
			}
		case "RF selection vs raw 44-dim BO":
			if r.Metric > r.Baseline*1.3 {
				t.Errorf("selection much worse than raw BO: %+v", r)
			}
		}
	}
	if out := res.Render(); !strings.Contains(out, "GP-Hedge") {
		t.Error("render missing rows")
	}
}

func TestMappingExperiment(t *testing.T) {
	cfg := tinyConfig()
	rows := MappingExperiment(cfg)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]MappingRow{}
	for _, r := range rows {
		byName[r.Workload] = r
		if r.Quality <= 0 || r.BaselineQuality <= 0 {
			t.Errorf("%s: bad qualities %+v", r.Workload, r)
		}
	}
	// The PageRank lookalike must map and spend only probes.
	look := byName["WebGraphRank"]
	if !look.Mapped {
		t.Errorf("lookalike did not map: %+v", look)
	}
	if look.SelectionEvals >= look.BaselineSelectionEvals {
		t.Errorf("mapping did not save selection evals: %d vs %d",
			look.SelectionEvals, look.BaselineSelectionEvals)
	}
	if look.MatchedTo != "PageRank" {
		t.Errorf("lookalike matched to %q, want PageRank", look.MatchedTo)
	}
	if out := RenderMapping(rows); !strings.Contains(out, "WebGraphRank") {
		t.Error("render missing workload")
	}
}

func TestAmortizationExperiment(t *testing.T) {
	rows := tinyGrid().Amortization("KMeans")
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.Datasets != i+1 {
			t.Errorf("row %d datasets = %d", i, r.Datasets)
		}
		for _, tn := range TunerNames {
			if r.Total[tn] <= 0 {
				t.Errorf("row %d %s total %v", i, tn, r.Total[tn])
			}
		}
		// Cumulative totals are non-decreasing.
		if i > 0 {
			for _, tn := range TunerNames {
				if r.Total[tn] < rows[i-1].Total[tn] {
					t.Errorf("%s cumulative cost decreased", tn)
				}
			}
		}
	}
	// ROBOTune's marginal cost shrinks after session 1: the D2+D3
	// increment must be below its D1 total (selection only paid once).
	rt1 := rows[0].Total["ROBOTune"]
	rtInc := rows[2].Total["ROBOTune"] - rt1
	if rtInc >= rt1 {
		t.Errorf("ROBOTune D2+D3 increment %v not below D1 total %v (selection re-paid?)", rtInc, rt1)
	}
	if out := RenderAmortization("KMeans", rows); !strings.Contains(out, "amortization") {
		t.Error("render missing title")
	}
	if tinyGrid().Amortization("Nope") != nil {
		t.Error("unknown workload should return nil")
	}
}
