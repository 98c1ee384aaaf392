package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/journal"
)

// TestMain runs this command's main instead of the tests when
// ROBOTUNE_TEST_MAIN is set, so a test can drive robotune end to end
// in a child process.
func TestMain(m *testing.M) {
	if os.Getenv("ROBOTUNE_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// robotune runs the command with args in dir and returns its exit
// code.
func robotune(t *testing.T, dir string, args ...string) int {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "ROBOTUNE_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("robotune %v: %v\n%s", args, err, out)
	}
	return cmd.ProcessState.ExitCode()
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// journalTrials reads the journal at path back under meta.
func journalTrials(t *testing.T, path string, meta journal.Meta) []journal.EvalEntry {
	t.Helper()
	jn, err := journal.Open(path, meta, journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	var trials []journal.EvalEntry
	for e, ok := jn.NextReplay(); ok; e, ok = jn.NextReplay() {
		trials = append(trials, e)
	}
	return trials
}

// TestTraceExportsJournal: -trace writes exactly the journal's trials
// in trial order — one per trial, however many attempts its retries
// took — and the same file when the finished journal is re-run (every
// trial is replayed, none evaluated) or when no -journal is given (the
// session journals to a temporary file that is removed afterwards).
func TestTraceExportsJournal(t *testing.T) {
	const budget = 12
	args := []string{"-tuner", "rs", "-workload", "TeraSort", "-budget", "12", "-seed", "1",
		"-faults", "default", "-retries", "2"}
	dir := t.TempDir()
	if code := robotune(t, dir, append(args, "-journal", "J", "-trace", "T1")...); code != 0 {
		t.Fatalf("journaled run exited %d", code)
	}
	t1 := readFile(t, filepath.Join(dir, "T1"))
	var tl traceLog
	if err := json.Unmarshal(t1, &tl); err != nil {
		t.Fatal(err)
	}
	want := journalTrials(t, filepath.Join(dir, "J"), tl.Meta)
	if len(want) != budget {
		t.Fatalf("journal holds %d trials, want %d", len(want), budget)
	}
	if tl.Failures.Retries == 0 {
		t.Fatal("no retries: the run cannot tell trials from attempts")
	}
	if !reflect.DeepEqual(tl.Records, want) {
		t.Fatal("trace records differ from the journal's trials")
	}
	for i, e := range tl.Records {
		if e.Trial != i {
			t.Fatalf("record %d holds trial %d", i, e.Trial)
		}
	}

	if code := robotune(t, dir, append(args, "-journal", "J", "-trace", "T2")...); code != 0 {
		t.Fatalf("re-run exited %d", code)
	}
	if !bytes.Equal(readFile(t, filepath.Join(dir, "T2")), t1) {
		t.Error("re-run on the finished journal exported a different trace")
	}

	alone := t.TempDir()
	if code := robotune(t, alone, append(args, "-trace", "T3")...); code != 0 {
		t.Fatalf("run without -journal exited %d", code)
	}
	if !bytes.Equal(readFile(t, filepath.Join(alone, "T3")), t1) {
		t.Error("run without -journal exported a different trace")
	}
	if entries, _ := os.ReadDir(alone); len(entries) != 1 {
		t.Errorf("run without -journal left %d files, want only the trace", len(entries))
	}
}

// TestTraceNothingFound: a session in which nothing completes has a
// best time of +Inf, which JSON cannot encode; the trace leaves best
// and bestSeconds out and stays valid JSON.
func TestTraceNothingFound(t *testing.T) {
	dir := t.TempDir()
	if code := robotune(t, dir, "-tuner", "rs", "-budget", "3", "-cap", "1", "-trace", "T"); code != 1 {
		t.Fatalf("run with nothing completing exited %d, want 1", code)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(readFile(t, filepath.Join(dir, "T")), &fields); err != nil {
		t.Fatal(err)
	}
	if string(fields["found"]) != "false" {
		t.Errorf("found = %s, want false", fields["found"])
	}
	for _, k := range []string{"best", "bestSeconds"} {
		if _, ok := fields[k]; ok {
			t.Errorf("trace of a session that found nothing holds %q", k)
		}
	}
	var records []journal.EvalEntry
	if err := json.Unmarshal(fields["records"], &records); err != nil || len(records) != 3 {
		t.Errorf("records: %d (%v), want 3", len(records), err)
	}
}

func TestCheckBudgets(t *testing.T) {
	for _, tc := range []struct {
		budget int
		refit  float64
		ok     bool
	}{
		{1, 0, true}, {100, 0, true}, {20, 0.5, true}, {20, 0.999, true},
		{0, 0, false}, {-3, 0, false},
		{20, 1, false}, {20, 5, false}, {20, -0.1, false},
		{20, math.NaN(), false}, {20, math.Inf(1), false},
	} {
		if err := checkBudgets(tc.budget, tc.refit); (err == nil) != tc.ok {
			t.Errorf("checkBudgets(%d, %v) = %v, want ok %v", tc.budget, tc.refit, err, tc.ok)
		}
	}
}
