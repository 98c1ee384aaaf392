package schedule

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/sparksim"
	"repro/internal/tuners"
)

// The campaign crash-stress harness is the outer mirror of the core
// package's TestKillResumeStress: instead of one journaled session, it
// SIGKILLs a whole campaign runner — several concurrent sessions, a
// campaign ledger, per-session journals — at escalating depths and
// resumes until completion. The stitched campaign must be
// bit-identical to an uninterrupted in-process run, and a final
// verification round must construct zero tuners (every task settled
// from the ledger — the "no completed session re-executes" criterion).
// Gated behind ROBOTUNE_CRASH_STRESS so tier-1 `go test ./...` stays
// fast; `make crash-stress-campaign` (and the CI job) enable it.
const (
	campaignStressEnv = "ROBOTUNE_CRASH_STRESS"
	campaignChildEnv  = "ROBOTUNE_CAMPAIGN_CHILD"
	campaignDirEnv    = "ROBOTUNE_CAMPAIGN_DIR"
	campaignKills     = 5
)

func stressOptions() core.Options {
	o := core.Options{}
	// Large enough that SIGKILL lands mid-forest-training and mid-GP-fit,
	// small enough that one uninterrupted run stays under a minute.
	o.GenericSamples = 60
	o.TuningSamples = 10
	o.Forest.Trees = 50
	o.PermuteRepeats = 8
	o.BO.CandidatePool = 256
	o.BO.Starts = 4
	o.BO.GPRestarts = 3
	o.Parallel = 4
	return o
}

// stressTasks builds the campaign under test: four sessions mixing
// ROBOTune and the baseline tuners over private simulator evaluators.
// newCount, when non-nil, counts Task.New invocations — the ledger
// must keep it at zero for settled tasks.
func stressTasks(space *conf.Space, dir string, newCount *int32) []Task {
	cluster := sparksim.PaperCluster()
	mk := func(name string, tn tuners.Tuner, w sparksim.Workload, evSeed uint64, budget int, seed uint64) Task {
		return Task{
			Name:  name,
			Space: space,
			New: func() tuners.Tuner {
				if newCount != nil {
					atomic.AddInt32(newCount, 1)
				}
				return tn
			},
			Sessions: []Session{{
				Objective:   func() tuners.Objective { return sparksim.NewEvaluator(cluster, w, evSeed, 480) },
				Request:     tuners.Request{Budget: budget, Seed: seed},
				JournalPath: dir + "/" + name + ".jnl",
				Meta:        journal.Meta{Seed: seed, Budget: budget, Workload: name, Tuner: tn.Name()},
			}},
		}
	}
	return []Task{
		mk("robotune-terasort", core.New(nil, stressOptions()), sparksim.TeraSort(20), 17, 90, 11),
		mk("random-kmeans", tuners.RandomSearch{}, sparksim.KMeans(4), 23, 60, 5),
		mk("robotune-kmeans", core.New(nil, stressOptions()), sparksim.KMeans(2), 53, 90, 13),
		mk("bestconfig-pagerank", tuners.BestConfig{RoundSize: 8}, sparksim.PageRank(2), 31, 60, 7),
	}
}

func stressCampaignOptions(dir string) CampaignOptions {
	return CampaignOptions{
		LedgerPath:  dir + "/campaign.lgr",
		Sync:        journal.SyncAlways,
		Seed:        97,
		Config:      "campaign-crash-stress",
		Concurrency: 4,
	}
}

// taskLine formats one task outcome for cross-process comparison;
// floats print as %x so the parity check is bit-exact.
func taskLine(i int, out TaskOutcome) string {
	line := fmt.Sprintf("TASK %d failed=%q", i, out.Failed)
	for _, r := range out.Results {
		line += fmt.Sprintf(" found=%v best=%x cost=%x evals=%d trace=%d",
			r.Found, r.BestSeconds, r.SearchCost, r.Evals, len(r.Trace))
	}
	return line
}

// TestCampaignCrashChild is the subprocess body, not a standalone
// test: it runs (or resumes) the journaled campaign and reports every
// task outcome plus the number of tuners it had to construct.
func TestCampaignCrashChild(t *testing.T) {
	if os.Getenv(campaignChildEnv) != "1" {
		t.Skip("campaign crash-stress child body; run via TestCampaignKillResumeStress")
	}
	dir := os.Getenv(campaignDirEnv)
	var news int32
	res, err := RunCampaign(stressTasks(conf.SparkSpace(), dir, &news), stressCampaignOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("NEW_TASKS=%d\n", news)
	for i, out := range res.Tasks {
		fmt.Println(taskLine(i, out))
	}
	fmt.Printf("CAMPAIGN_DONE resumed=%v\n", res.Resumed)
}

// TestCampaignKillResumeStress: SIGKILL the campaign runner at
// escalating depths — at least campaignKills times, with no graceful
// unwinding — resuming after each kill. The completed campaign must
// match the uninterrupted in-process baseline bit-for-bit, and one
// extra verification round must run with zero constructed tuners.
func TestCampaignKillResumeStress(t *testing.T) {
	if os.Getenv(campaignStressEnv) == "" {
		t.Skip("set " + campaignStressEnv + "=1 (or run `make crash-stress-campaign`) to enable")
	}

	// Uninterrupted baseline: same tasks, no durability, run in-process.
	base, err := RunCampaign(stressTasks(conf.SparkSpace(), t.TempDir(), nil), CampaignOptions{Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	wantLines := make([]string, len(base.Tasks))
	for i, out := range base.Tasks {
		if out.Failed != "" || !out.Results[0].Found {
			t.Fatalf("baseline task %d did not complete: %+v", i, out)
		}
		wantLines[i] = taskLine(i, out)
	}

	dir := t.TempDir()
	kills := 0
	delay := 100 * time.Millisecond
	var finalOut string
	for round := 0; ; round++ {
		if round > 80 {
			t.Fatal("campaign did not complete within 80 kill/resume rounds")
		}
		out, killed := campaignChild(t, dir, delay)
		if killed {
			kills++
			delay += 100 * time.Millisecond // walk the kill point through the campaign
			continue
		}
		if !strings.Contains(out, "CAMPAIGN_DONE") {
			t.Fatalf("child exited cleanly without finishing the campaign:\n%s", out)
		}
		finalOut = out
		break
	}
	if kills < campaignKills {
		t.Fatalf("campaign survived only %d SIGKILLs, want at least %d — widen the campaign", kills, campaignKills)
	}
	t.Logf("campaign completed after %d SIGKILLs", kills)

	for _, want := range wantLines {
		if !strings.Contains(finalOut, want) {
			t.Fatalf("stitched campaign diverged from the uninterrupted baseline:\nwant %s\ngot:\n%s", want, finalOut)
		}
	}

	// Verification round: everything must come straight from the ledger —
	// zero tuners constructed, zero evaluations spent, same results.
	out, killed := campaignChild(t, dir, time.Hour)
	if killed {
		t.Fatal("verification round timed out")
	}
	if !strings.Contains(out, "NEW_TASKS=0") {
		t.Fatalf("verification round re-executed completed sessions:\n%s", out)
	}
	if !strings.Contains(out, "resumed=true") {
		t.Fatalf("verification round did not resume from the ledger:\n%s", out)
	}
	for _, want := range wantLines {
		if !strings.Contains(out, want) {
			t.Fatalf("ledger-settled results diverged:\nwant %s\ngot:\n%s", want, out)
		}
	}
}

// campaignChild re-executes this test binary as the campaign child,
// SIGKILLs it after the delay, and reports its combined output and
// whether the kill landed before exit.
func campaignChild(t *testing.T, dir string, delay time.Duration) (string, bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCampaignCrashChild$", "-test.v")
	cmd.Env = append(os.Environ(), campaignChildEnv+"=1", campaignDirEnv+"="+dir)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting child: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case <-done:
		return buf.String(), false
	case <-time.After(delay):
		_ = cmd.Process.Signal(syscall.SIGKILL)
		<-done
		return buf.String(), true
	}
}
