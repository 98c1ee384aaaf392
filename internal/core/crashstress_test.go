package core

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/conf"
	"repro/internal/journal"
	"repro/internal/tuners"
)

// The crash-stress harness re-executes this test binary as a child
// running a journaled campaign, SIGKILLs it at escalating depths, and
// resumes until completion — then checks the stitched-together result
// against an uninterrupted in-process run. Gated behind an env var so
// tier-1 `go test ./...` stays fast; `make crash-stress` (and the CI
// job) enable it.
const (
	crashStressEnv  = "ROBOTUNE_CRASH_STRESS"
	crashChildEnv   = "ROBOTUNE_CRASH_CHILD"
	crashJournalEnv = "ROBOTUNE_CRASH_JOURNAL"
)

func crashStressSetup() resumeSetup {
	o := resumeOptions()
	// A larger campaign than the in-process sweeps, so SIGKILL lands at
	// genuinely arbitrary points (including mid-forest-training and
	// mid-GP-fit), while one full run still takes well under a minute.
	o.GenericSamples = 60
	o.Forest.Trees = 50
	o.PermuteRepeats = 8
	o.BO.CandidatePool = 256
	o.BO.Starts = 4
	o.BO.GPRestarts = 3
	return resumeSetup{opts: o, space: conf.SparkSpace(), faults: true, retries: 1, budget: 80, seed: 97}
}

// TestCrashStressChild is the subprocess body, not a standalone test:
// it runs (or resumes) the journaled campaign at the shared setup and
// reports the result on stdout for the parent to compare.
func TestCrashStressChild(t *testing.T) {
	if os.Getenv(crashChildEnv) != "1" {
		t.Skip("crash-stress child body; run via TestKillResumeStress")
	}
	rs := crashStressSetup()
	res, _ := rs.run(t, os.Getenv(crashJournalEnv))
	fmt.Printf("CHILD_RESULT found=%v best=%x cost=%x evals=%d trace=%d\n",
		res.Found, res.BestSeconds, res.SearchCost, res.Evals, len(res.Trace))
}

// TestKillResumeStress: SIGKILL the journaled campaign at escalating
// depths — no graceful unwinding, no deferred cleanup — and resume
// each time. The final completed run must be bit-identical to the
// uninterrupted baseline.
func TestKillResumeStress(t *testing.T) {
	if os.Getenv(crashStressEnv) == "" {
		t.Skip("set " + crashStressEnv + "=1 (or run `make crash-stress`) to enable")
	}
	rs := crashStressSetup()
	baseline, _ := rs.run(t, "")
	if !baseline.Found {
		t.Fatal("baseline found nothing")
	}

	jnl := tempJournalPath(t)
	kills := 0
	delay := 100 * time.Millisecond
	for round := 0; ; round++ {
		if round > 50 {
			t.Fatal("campaign did not complete within 50 kill/resume rounds")
		}
		cmd := exec.Command(os.Args[0], "-test.run=^TestCrashStressChild$", "-test.v")
		cmd.Env = append(os.Environ(), crashChildEnv+"=1", crashJournalEnv+"="+jnl)
		out, killed := runAndKill(t, cmd, delay)
		if killed {
			kills++
			delay += 100 * time.Millisecond // walk the kill point through the campaign
			continue
		}
		if !strings.Contains(out, "CHILD_RESULT") {
			t.Fatalf("child exited cleanly without a result:\n%s", out)
		}
		break
	}
	if kills == 0 {
		t.Log("no round was killed mid-run; parity check still meaningful but widen the campaign")
	}
	t.Logf("campaign completed after %d SIGKILLs", kills)

	// The journal now holds the stitched run; replaying it end-to-end
	// must reproduce the uninterrupted baseline bit-for-bit.
	jn, err := journal.Open(jnl, resumeMeta(rs.seed, rs.budget, rs.faultsName()), journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := jn.Done(); !ok {
		t.Fatal("completed campaign left no done record")
	}
	r := New(nil, rs.opts)
	res := r.Run(tuners.NewSession(rs.evaluator(), rs.space, tuners.Request{
		Budget: rs.budget, Seed: rs.seed,
		Retry:   tuners.RetryPolicy{MaxRetries: rs.retries},
		Journal: jn,
	}))
	if reason := jn.Diverged(); reason != "" {
		t.Fatalf("replay of the stitched journal diverged: %s", reason)
	}
	jn.Close()
	assertSameResult(t, "kill-resume", res, baseline)
}

// runAndKill starts the child, SIGKILLs it after the delay, and
// reports its combined output and whether the kill landed before exit.
func runAndKill(t *testing.T, cmd *exec.Cmd, delay time.Duration) (string, bool) {
	t.Helper()
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

func tempJournalPath(t *testing.T) string {
	t.Helper()
	return t.TempDir() + "/stress.jnl"
}
