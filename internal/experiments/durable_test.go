package experiments

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

func sameSessions(t *testing.T, label string, got, want []Session) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d sessions vs %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Tuner != w.Tuner || g.Workload != w.Workload || g.DatasetIdx != w.DatasetIdx || g.Repeat != w.Repeat {
			t.Fatalf("%s: session %d identity %+v vs %+v", label, i, g, w)
		}
		if g.Quality != w.Quality || g.Found != w.Found ||
			g.SearchCost != w.SearchCost || g.SelectionCost != w.SelectionCost {
			t.Fatalf("%s: session %d numbers differ: %+v vs %+v", label, i, g, w)
		}
		if len(g.Trace) != len(w.Trace) {
			t.Fatalf("%s: session %d trace %d vs %d", label, i, len(g.Trace), len(w.Trace))
		}
		for j := range g.Trace {
			if g.Trace[j] != w.Trace[j] {
				t.Fatalf("%s: session %d trace[%d] %v vs %v", label, i, j, g.Trace[j], w.Trace[j])
			}
		}
	}
}

// TestDurableComparisonMatchesPlain: running the grid with a campaign
// ledger produces exactly the sessions the plain path produces, and a
// second run against the completed ledger reuses every task — zero
// re-tuning — with bit-identical numbers.
func TestDurableComparisonMatchesPlain(t *testing.T) {
	cfg := tinyConfig()
	cfg.Budget = 20
	plain := RunComparison(cfg, onlyWorkload("TeraSort"))

	lgr := t.TempDir() + "/grid.lgr"
	fresh, info, err := RunComparisonDurable(cfg, onlyWorkload("TeraSort"), lgr)
	if err != nil {
		t.Fatal(err)
	}
	if info.Resumed || info.Reused != 0 || len(info.Failed) != 0 || info.Err != nil {
		t.Fatalf("fresh durable run reported %+v", info)
	}
	sameSessions(t, "durable vs plain", fresh.Sessions, plain.Sessions)

	resumed, info2, err := RunComparisonDurable(cfg, onlyWorkload("TeraSort"), lgr)
	if err != nil {
		t.Fatal(err)
	}
	if !info2.Resumed {
		t.Fatal("second run did not see the ledger")
	}
	// 4 tuners x 1 workload x 1 repeat = 4 tasks, all settled.
	if info2.Reused != 4 {
		t.Fatalf("reused %d tasks, want 4", info2.Reused)
	}
	sameSessions(t, "ledger-settled vs plain", resumed.Sessions, plain.Sessions)
}

// TestDurableComparisonRejectsChangedGrid: resuming a ledger with a
// different result-affecting configuration must fail fast instead of
// stitching incompatible halves.
func TestDurableComparisonRejectsChangedGrid(t *testing.T) {
	cfg := tinyConfig()
	cfg.Budget = 15
	lgr := t.TempDir() + "/grid.lgr"
	if _, _, err := RunComparisonDurable(cfg, onlyWorkload("KMeans"), lgr); err != nil {
		t.Fatal(err)
	}
	cfg.Budget = 16
	if _, _, err := RunComparisonDurable(cfg, onlyWorkload("KMeans"), lgr); err == nil {
		t.Fatal("budget change accepted against an existing ledger")
	}
	cfg.Budget = 15
	if _, _, err := RunComparisonDurable(cfg, onlyWorkload("TeraSort"), lgr); err == nil {
		t.Fatal("workload-set change accepted against an existing ledger")
	}
}

// TestDurableComparisonRefusesParentLedger: a grid ledger written
// before the grid ran on schedule.RunCampaign — a []Session done
// payload per task, no runner policy in its manifest and the ROBOLGR1
// format — is refused for its magic rather than misread, and left
// untouched. testdata/parent-grid.lgr was written by that code for
// this configuration with the relative ledger path "grid.lgr", so the
// test opens it from a working directory of its own.
func TestDurableComparisonRefusesParentLedger(t *testing.T) {
	old, err := os.ReadFile("testdata/parent-grid.lgr")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(dir+"/grid.lgr", old, 0o644); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	cfg := tinyConfig()
	cfg.Budget = 10
	_, _, err = RunComparisonDurable(cfg, onlyWorkload("TeraSort"), "grid.lgr")
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("parent ledger not refused: %v", err)
	}
	if now, err := os.ReadFile("grid.lgr"); err != nil || !bytes.Equal(now, old) {
		t.Fatalf("refused ledger was modified (err %v)", err)
	}
	if entries, _ := os.ReadDir("."); len(entries) != 1 {
		t.Fatalf("refused resume left %d files behind", len(entries))
	}
}

// TestGridCrashedCell: a cell whose tuner cannot be built fails its
// task. With a ledger the grid reports it in CampaignInfo.Failed and
// returns the rest; without one nothing would record it, so the grid
// panics instead of returning tables averaged over a partial grid.
func TestGridCrashedCell(t *testing.T) {
	g := tuningGrid{cfg: tinyConfig().withDefaults(), bk: sparkBackend(), datasets: 1,
		cells: []gridCell{{"TeraSort", "NoSuchTuner", 0}}}
	sessions, info, err := g.run(t.TempDir() + "/grid.lgr")
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 0 || len(info.Failed) != 1 || !strings.Contains(info.Failed[0], "NoSuchTuner") {
		t.Fatalf("durable grid: %d sessions, failed %q", len(sessions), info.Failed)
	}

	defer func() {
		if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "NoSuchTuner") {
			t.Fatalf("ledger-less grid recovered %v, want a panic naming the crashed cell", p)
		}
	}()
	g.run("")
}
