package schedule

import (
	"context"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/backend"
	"repro/internal/conf"
	"repro/internal/journal"
	"repro/internal/tuners"
)

// detFn is a deterministic, order-independent objective function:
// cost depends only on the configuration (keys summed in sorted
// order, so float rounding never depends on map iteration).
func detFn(c conf.Config) float64 {
	m := c.ToMap()
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := 5.0
	for _, k := range keys {
		s += math.Mod(m[k], 97) * 0.01
	}
	return s
}

// countingObjective builds a fresh functional objective whose live
// evaluations (replay never reaches Fn) increment calls.
func countingObjective(calls *int32, hook func(n int32)) *tuners.FuncObjective {
	return &tuners.FuncObjective{Fn: func(c conf.Config) (float64, bool) {
		n := atomic.AddInt32(calls, 1)
		if hook != nil {
			hook(n)
		}
		return detFn(c), true
	}}
}

// funcTask assembles one single-session campaign task over a counting
// functional objective. dir == "" builds a non-durable task.
func funcTask(space *conf.Space, name string, tn tuners.Tuner, budget int, seed uint64, dir string, calls *int32, hook func(n int32)) Task {
	s := Session{
		Objective: func() tuners.Objective { return countingObjective(calls, hook) },
		Request:   tuners.Request{Budget: budget, Seed: seed},
	}
	if dir != "" {
		s.JournalPath = dir + "/" + name + ".jnl"
		s.Meta = journal.Meta{Seed: seed, Budget: budget, Tuner: tn.Name(), Workload: name}
	}
	return Task{Name: name, Space: space, New: func() tuners.Tuner { return tn }, Sessions: []Session{s}}
}

// TestCampaignLedgerResume: a completed campaign re-run against its
// ledger returns every task from the done records — no tuner is
// constructed, no objective is called, and the results are identical.
func TestCampaignLedgerResume(t *testing.T) {
	dir := t.TempDir()
	opts := CampaignOptions{LedgerPath: dir + "/campaign.lgr", Seed: 42, Config: "test", Concurrency: 2}
	space := conf.SparkSpace()
	var calls1 int32
	mk := func(calls *int32) []Task {
		return []Task{
			funcTask(space, "rs-a", tuners.RandomSearch{}, 10, 3, dir, calls, nil),
			funcTask(space, "bc", tuners.BestConfig{RoundSize: 4}, 12, 5, dir, calls, nil),
			funcTask(space, "rs-b", tuners.RandomSearch{}, 8, 7, dir, calls, nil),
		}
	}
	res1, err := RunCampaign(mk(&calls1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Resumed {
		t.Fatal("fresh campaign reported Resumed")
	}
	if calls1 == 0 {
		t.Fatal("fresh campaign ran no live evaluations")
	}
	for i, out := range res1.Tasks {
		if out.Failed != "" || out.Reused || !out.Results[0].Found {
			t.Fatalf("task %d: unexpected fresh outcome %+v", i, out)
		}
	}

	var calls2 int32
	res2, err := RunCampaign(mk(&calls2), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Resumed {
		t.Fatal("second run did not see the ledger")
	}
	if calls2 != 0 {
		t.Fatalf("resumed completed campaign re-executed %d evaluations", calls2)
	}
	for i := range res2.Tasks {
		if !res2.Tasks[i].Reused {
			t.Fatalf("task %d not satisfied from the ledger", i)
		}
		sameResult(t, "ledger resume", res2.Tasks[i].Results[0], res1.Tasks[i].Results[0])
	}
}

// TestCampaignResumesMidGrid: kill (via context cancellation) one
// in-flight session of a campaign, resume the campaign, and check the
// stitched outcome is bit-identical to an uninterrupted run — with
// completed sessions skipped and the interrupted one continued from
// its journal, never re-executed.
func TestCampaignResumesMidGrid(t *testing.T) {
	const interruptAt = 6
	space := conf.SparkSpace()
	baselineTasks := func(dir string, calls *int32, hook func(int32), ctx context.Context) []Task {
		ts := []Task{
			funcTask(space, "done-a", tuners.RandomSearch{}, 9, 11, dir, calls, nil),
			funcTask(space, "victim", tuners.RandomSearch{}, 10, 13, dir, calls, hook),
			funcTask(space, "done-b", tuners.BestConfig{RoundSize: 5}, 10, 17, dir, calls, nil),
		}
		if ctx != nil {
			ts[1].Sessions[0].Request.Ctx = ctx
		}
		return ts
	}

	// Uninterrupted baseline, no durability.
	var base int32
	want, err := RunCampaign(baselineTasks("", &base, nil, nil), CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	opts := CampaignOptions{LedgerPath: dir + "/campaign.lgr", Seed: 1}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var victimCalls int32
	hook := func(n int32) {
		if n == interruptAt {
			cancel()
		}
	}
	// The hook counter must only see the victim's calls.
	var calls1 int32
	run1Tasks := baselineTasks(dir, &calls1, nil, ctx)
	run1Tasks[1] = funcTask(space, "victim", tuners.RandomSearch{}, 10, 13, dir, &victimCalls, hook)
	run1Tasks[1].Sessions[0].Request.Ctx = ctx
	res1, err := RunCampaign(run1Tasks, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Tasks[1].Results[0].Cancelled {
		t.Fatal("victim session was not interrupted")
	}
	if int(victimCalls) != interruptAt {
		t.Fatalf("victim ran %d live evaluations before the kill, want %d", victimCalls, interruptAt)
	}

	// Resume: completed tasks come from the ledger, the victim resumes
	// from its session journal and spends only the remaining budget.
	var calls2, victimCalls2 int32
	run2Tasks := baselineTasks(dir, &calls2, nil, nil)
	run2Tasks[1] = funcTask(space, "victim", tuners.RandomSearch{}, 10, 13, dir, &victimCalls2, nil)
	res2, err := RunCampaign(run2Tasks, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Resumed {
		t.Fatal("resume did not see the ledger")
	}
	if !res2.Tasks[0].Reused || !res2.Tasks[2].Reused {
		t.Fatal("completed sessions were not satisfied from the ledger")
	}
	if calls2 != 0 {
		t.Fatalf("completed sessions re-executed %d evaluations on resume", calls2)
	}
	if got, wantLive := int(victimCalls2), 10-interruptAt; got != wantLive {
		t.Fatalf("victim spent %d live evaluations on resume, want %d (zero re-execution)", got, wantLive)
	}
	for i := range want.Tasks {
		sameResult(t, "stitched vs uninterrupted", res2.Tasks[i].Results[0], want.Tasks[i].Results[0])
	}
}

// panicObjective panics on its nth live evaluation.
func panicObjective(calls *int32, at int32) *tuners.FuncObjective {
	return &tuners.FuncObjective{Fn: func(c conf.Config) (float64, bool) {
		if atomic.AddInt32(calls, 1) == at {
			panic("boom: injected session crash")
		}
		return detFn(c), true
	}}
}

// TestCampaignPanicContainment: a session that panics mid-evaluation
// is recorded as failed in the ledger; every other session completes,
// and a resumed campaign does not re-run the crashed task.
func TestCampaignPanicContainment(t *testing.T) {
	dir := t.TempDir()
	opts := CampaignOptions{LedgerPath: dir + "/campaign.lgr", Seed: 9, Concurrency: 3}
	space := conf.SparkSpace()
	var ok1, boom1 int32
	mk := func(ok, boom *int32) []Task {
		ts := []Task{
			funcTask(space, "steady-a", tuners.RandomSearch{}, 8, 3, dir, ok, nil),
			funcTask(space, "crasher", tuners.RandomSearch{}, 10, 5, dir, boom, nil),
			funcTask(space, "steady-b", tuners.BestConfig{RoundSize: 4}, 8, 7, dir, ok, nil),
		}
		ts[1].Sessions[0].Objective = func() tuners.Objective { return panicObjective(boom, 4) }
		return ts
	}
	res1, err := RunCampaign(mk(&ok1, &boom1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := res1.Tasks[1].Failed; !strings.Contains(got, "boom") {
		t.Fatalf("crashed task not recorded failed: %+v", res1.Tasks[1])
	}
	for _, i := range []int{0, 2} {
		if res1.Tasks[i].Failed != "" || !res1.Tasks[i].Results[0].Found {
			t.Fatalf("sibling task %d did not complete: %+v", i, res1.Tasks[i])
		}
	}

	// Resume: the failed task stays failed (a deterministic panic would
	// only repeat) and costs zero evaluations.
	var ok2, boom2 int32
	res2, err := RunCampaign(mk(&ok2, &boom2), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Tasks[1].Reused || !strings.Contains(res2.Tasks[1].Failed, "boom") {
		t.Fatalf("failed task not settled from the ledger: %+v", res2.Tasks[1])
	}
	if ok2 != 0 || boom2 != 0 {
		t.Fatalf("resume re-executed evaluations: ok=%d boom=%d", ok2, boom2)
	}
}

// earlyStopTuner consumes `use` trials of its budget and then stops
// deliberately, leaving the rest of its budget unspent.
type earlyStopTuner struct{ use int }

func (t earlyStopTuner) Name() string { return "EarlyStop" }

func (t earlyStopTuner) Run(s *tuners.Session) tuners.Result {
	return tuners.Drive(&earlyStopStepper{space: s.Space(), left: t.use}, s)
}

type earlyStopStepper struct {
	tuners.Protocol
	space *conf.Space
	left  int
}

func (st *earlyStopStepper) Done() bool { return st.left <= 0 }

func (st *earlyStopStepper) Propose(n int) []tuners.Proposal {
	st.CheckPropose(st.Done())
	st.left--
	p := []tuners.Proposal{{Config: st.space.Default()}}
	st.Proposed(p)
	return p
}

func (st *earlyStopStepper) Observe(c conf.Config, rec backend.EvalRecord) { st.Observed(c) }

// TestCampaignReportsDegradedJournal: a durable campaign whose session
// journal cannot record an observation still runs to the end and
// reports the failure in its result. JSON has no +Inf, so the trial
// whose objective reports +Inf seconds fails to append. The same
// campaign with finite times reports nothing.
func TestCampaignReportsDegradedJournal(t *testing.T) {
	space := conf.SparkSpace()
	for _, inf := range []bool{false, true} {
		dir := t.TempDir()
		var calls int32
		task := funcTask(space, "degraded", tuners.RandomSearch{}, 6, 3, dir, &calls, nil)
		task.Sessions[0].Objective = func() tuners.Objective {
			return &tuners.FuncObjective{Fn: func(c conf.Config) (float64, bool) {
				if atomic.AddInt32(&calls, 1) == 3 && inf {
					return math.Inf(1), true
				}
				return detFn(c), true
			}}
		}
		res, err := RunCampaign([]Task{task}, CampaignOptions{LedgerPath: dir + "/campaign.lgr"})
		if err != nil {
			t.Fatal(err)
		}
		if out := res.Tasks[0]; out.Failed != "" || len(out.Results) != 1 || len(out.Results[0].Trace) != 6 {
			t.Fatalf("inf=%v: campaign did not run to the end: %+v", inf, out)
		}
		if inf && (res.Err == nil || !strings.Contains(res.Err.Error(), "+Inf")) {
			t.Fatalf("failed journal append not reported: %v", res.Err)
		}
		if !inf && res.Err != nil {
			t.Fatalf("healthy campaign reported %v", res.Err)
		}
	}
}

// TestCampaignResultCodec: the done-record payload decodes to the
// results it encoded, every field bit-exact — a found result with its
// failure ledger, proxy flags and selection report, and a not-found
// one whose BestSeconds is +Inf.
func TestCampaignResultCodec(t *testing.T) {
	space := conf.SparkSpace()
	found := tuners.Result{
		Best: space.Default(), BestSeconds: 41.25, Found: true, Evals: 3, SearchCost: 130.5,
		Trace: []float64{50.125, 41.25, 480}, Completed: []bool{true, true, false}, Proxy: []bool{true, false, false},
		SelectedParams: []string{"spark.executor.cores"}, SelectionEvals: 2, SelectionCost: 77.75,
		Failures:           tuners.FailureStats{Failed: 1, Transient: 2, Retries: 1, OOM: 1, BackoffSeconds: 5, Skipped: 1},
		SurrogateFallbacks: 1,
	}
	missing := tuners.Result{BestSeconds: math.Inf(1), Evals: 1, SearchCost: 480, Trace: []float64{480}, Completed: []bool{false}}
	data, err := encodeResults([]tuners.Result{found, missing})
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeResults(space, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !got[0].Best.Equal(found.Best) || got[1].Best.Valid() {
		t.Fatalf("decoded %d results; best configs did not round-trip", len(got))
	}
	for k, want := range []tuners.Result{found, missing} {
		g := got[k]
		g.Best, want.Best = conf.Config{}, conf.Config{}
		if !reflect.DeepEqual(g, want) {
			t.Fatalf("result %d: decoded %+v, encoded %+v", k, g, want)
		}
	}
}
