package schedule

import (
	"context"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/backend"
	"repro/internal/conf"
	"repro/internal/journal"
	"repro/internal/sparksim"
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

// funcTask assembles one durable campaign task over a counting
// functional objective. dir == "" builds a non-durable task.
func funcTask(space *conf.Space, name string, tn tuners.Tuner, budget int, seed uint64, dir string, calls *int32, hook func(n int32)) Task {
	t := Task{
		Name:    name,
		Space:   space,
		Request: tuners.Request{Budget: budget, Seed: seed},
		New: func() (tuners.Tuner, tuners.Objective) {
			return tn, countingObjective(calls, hook)
		},
	}
	if dir != "" {
		t.JournalPath = dir + "/" + name + ".jnl"
		t.Meta = journal.Meta{Seed: seed, Budget: budget, Tuner: tn.Name(), Workload: name}
	}
	return t
}

// TestCampaignLedgerResume: a completed campaign re-run against its
// ledger returns every task from the done records — no tuner is
// constructed, no objective is called, and the results are identical.
func TestCampaignLedgerResume(t *testing.T) {
	dir := t.TempDir()
	opts := CampaignOptions{LedgerPath: dir + "/campaign.lgr", Seed: 42, Config: "test"}
	space := conf.SparkSpace()
	var calls1 int32
	mk := func(calls *int32) []Task {
		return []Task{
			funcTask(space, "rs-a", tuners.RandomSearch{}, 10, 3, dir, calls, nil),
			funcTask(space, "bc", tuners.BestConfig{RoundSize: 4}, 12, 5, dir, calls, nil),
			funcTask(space, "rs-b", tuners.RandomSearch{}, 8, 7, dir, calls, nil),
		}
	}
	sched := NewScheduler(2, 2)
	res1, err := sched.RunCampaign(mk(&calls1), opts)
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
		if out.Failed != "" || out.Reused || !out.Result.Found {
			t.Fatalf("task %d: unexpected fresh outcome %+v", i, out)
		}
	}

	var calls2 int32
	res2, err := sched.RunCampaign(mk(&calls2), opts)
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
		sameResult(t, "ledger resume", res2.Tasks[i].Result, res1.Tasks[i].Result)
	}
	if res2.Unused != res1.Unused {
		t.Fatalf("unused drifted across resume: %d vs %d", res2.Unused, res1.Unused)
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
			ts[1].Request.Ctx = ctx
		}
		return ts
	}

	// Uninterrupted baseline, no durability.
	var base int32
	sched := NewScheduler(1, 1)
	want, err := sched.RunCampaign(baselineTasks("", &base, nil, nil), CampaignOptions{})
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
	run1Tasks[1].Request.Ctx = ctx
	res1, err := sched.RunCampaign(run1Tasks, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Tasks[1].Result.Cancelled {
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
	res2, err := sched.RunCampaign(run2Tasks, opts)
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
		sameResult(t, "stitched vs uninterrupted", res2.Tasks[i].Result, want.Tasks[i].Result)
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
// no pool slot leaks (RunCampaign's teardown assertion would error),
// and a resumed campaign does not re-run the crashed task.
func TestCampaignPanicContainment(t *testing.T) {
	dir := t.TempDir()
	opts := CampaignOptions{LedgerPath: dir + "/campaign.lgr", Seed: 9}
	space := conf.SparkSpace()
	var ok1, boom1 int32
	mk := func(ok, boom *int32) []Task {
		ts := []Task{
			funcTask(space, "steady-a", tuners.RandomSearch{}, 8, 3, dir, ok, nil),
			funcTask(space, "crasher", tuners.RandomSearch{}, 10, 5, dir, boom, nil),
			funcTask(space, "steady-b", tuners.BestConfig{RoundSize: 4}, 8, 7, dir, ok, nil),
		}
		ts[1].New = func() (tuners.Tuner, tuners.Objective) {
			return tuners.RandomSearch{}, panicObjective(boom, 4)
		}
		return ts
	}
	sched := NewScheduler(2, 3)
	res1, err := sched.RunCampaign(mk(&ok1, &boom1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := res1.Tasks[1].Failed; !strings.Contains(got, "boom") {
		t.Fatalf("crashed task not recorded failed: %+v", res1.Tasks[1])
	}
	for _, i := range []int{0, 2} {
		if res1.Tasks[i].Failed != "" || !res1.Tasks[i].Result.Found {
			t.Fatalf("sibling task %d did not complete: %+v", i, res1.Tasks[i])
		}
	}
	if sched.Pool().InUse() != 0 {
		t.Fatalf("%d pool slots leaked past containment", sched.Pool().InUse())
	}

	// Resume: the failed task stays failed (a deterministic panic would
	// only repeat) and costs zero evaluations.
	var ok2, boom2 int32
	res2, err := sched.RunCampaign(mk(&ok2, &boom2), opts)
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
// deliberately — its stepper is not an Extender, so the campaign can
// never grant it anything and its unspent budget flows to the pool.
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

// reallocTasks: task 0 early-stops 15 trials short; task 1 is a
// random search that can absorb every grant.
func reallocTasks(space *conf.Space, dir string, stopCalls, absorbCalls *int32, hook func(int32), ctx context.Context) []Task {
	t0 := funcTask(space, "stopper", earlyStopTuner{use: 5}, 20, 21, dir, stopCalls, nil)
	t1 := funcTask(space, "absorber", tuners.RandomSearch{}, 10, 23, dir, absorbCalls, hook)
	if ctx != nil {
		t1.Request.Ctx = ctx
	}
	return []Task{t0, t1}
}

// TestCampaignBudgetReallocation: evaluations unspent by an
// early-stopped session flow to a still-running one. The extended
// session is bit-identical to a session granted the full amount up
// front, the grant sequence is deterministic across runs, and the
// campaign finishes with strictly fewer unused evaluations than the
// non-reallocating scheduler.
func TestCampaignBudgetReallocation(t *testing.T) {
	sched := NewScheduler(1, 1)
	space := conf.SparkSpace()

	var plain, plainA int32
	off, err := sched.RunCampaign(reallocTasks(space, "", &plain, &plainA, nil, nil), CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if off.Unused != 15 {
		t.Fatalf("non-reallocating campaign banked %d unused, want 15", off.Unused)
	}
	if got := len(off.Tasks[1].Result.Trace); got != 10 {
		t.Fatalf("absorber ran %d trials without reallocation, want 10", got)
	}

	var on1, on1A int32
	run1, err := sched.RunCampaign(reallocTasks(space, "", &on1, &on1A, nil, nil), CampaignOptions{Reallocate: true})
	if err != nil {
		t.Fatal(err)
	}
	if run1.Unused >= off.Unused {
		t.Fatalf("reallocation left %d unused, not fewer than %d", run1.Unused, off.Unused)
	}
	if run1.Unused != 0 {
		t.Fatalf("reallocation left %d unused, want 0 (absorber is insatiable)", run1.Unused)
	}
	if got := len(run1.Tasks[1].Result.Trace); got != 25 {
		t.Fatalf("absorber ran %d trials with reallocation, want 25 (10 base + 15 granted)", got)
	}

	// Extension equivalence: granted budget spends exactly like base
	// budget — the extended session matches a direct run at 25.
	var direct int32
	obj := countingObjective(&direct, nil)
	want := tuners.RandomSearch{}.Run(tuners.NewSession(obj, space, tuners.Request{Budget: 25, Seed: 23}))
	sameResult(t, "extended vs direct", run1.Tasks[1].Result, want)

	// Grant determinism: a second fresh run decides the same grants.
	var on2, on2A int32
	run2, err := sched.RunCampaign(reallocTasks(space, "", &on2, &on2A, nil, nil), CampaignOptions{Reallocate: true})
	if err != nil {
		t.Fatal(err)
	}
	assertSameGrants(t, run1.Grants, run2.Grants)
}

// TestCampaignGrantReplayAfterKill: kill a reallocating campaign
// after a grant was journaled but only partially spent; the resumed
// campaign replays the recorded grant at the same trial boundary and
// finishes bit-identical to the uninterrupted run, grants included.
func TestCampaignGrantReplayAfterKill(t *testing.T) {
	sched := NewScheduler(1, 1)
	space := conf.SparkSpace()

	var plain, plainA int32
	want, err := sched.RunCampaign(reallocTasks(space, "", &plain, &plainA, nil, nil), CampaignOptions{Reallocate: true})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	opts := CampaignOptions{LedgerPath: dir + "/campaign.lgr", Reallocate: true, Seed: 2}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stop1, killed int32
	// 15 live absorber calls = 10 base trials + 5 into the first grant
	// of 10: the kill lands with grant seq 0 journaled and half-spent.
	res1, err := sched.RunCampaign(reallocTasks(space, dir, &stop1, &killed, func(n int32) {
		if n == 15 {
			cancel()
		}
	}, ctx), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Tasks[1].Result.Cancelled {
		t.Fatal("absorber was not interrupted")
	}
	if len(res1.Grants) == 0 {
		t.Fatal("kill landed before any grant was journaled; move the interrupt point")
	}

	var stop2, resumed int32
	res2, err := sched.RunCampaign(reallocTasks(space, dir, &stop2, &resumed, nil, nil), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Tasks[0].Reused {
		t.Fatal("completed stopper re-ran on resume")
	}
	if got := int(resumed); got != 25-15 {
		t.Fatalf("resume spent %d live evaluations, want %d (zero re-execution)", got, 25-15)
	}
	sameResult(t, "grant replay", res2.Tasks[1].Result, want.Tasks[1].Result)
	assertSameGrants(t, res2.Grants, want.Grants)
	if res2.Unused != want.Unused {
		t.Fatalf("unused mismatch: %d resumed vs %d uninterrupted", res2.Unused, want.Unused)
	}
}

func assertSameGrants(t *testing.T, got, want []journal.Grant) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("grant count %d vs %d: %+v vs %+v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("grant %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestBatchGateCancelled: the batch gate re-checks cancellation before
// acquiring slots — a batch dispatched after its campaign died returns
// all-skipped records immediately instead of blocking on a full pool.
func TestBatchGateCancelled(t *testing.T) {
	p := NewPool(1)
	p.acquire(Bulk) // saturate: any acquire would block forever
	defer p.release()

	ev := sparksim.NewEvaluator(sparksim.PaperCluster(), sparksim.TeraSort(10), 3, 480)
	w := p.Wrap(ev).(backend.BatchEvaluator)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfgs := []conf.Config{conf.SparkSpace().Default(), conf.SparkSpace().Default()}
	recs := w.EvaluateSpecCtx(ctx, cfgs, backend.EvalSpec{Workers: 2})
	if len(recs) != len(cfgs) {
		t.Fatalf("got %d records for %d configs", len(recs), len(cfgs))
	}
	for i, r := range recs {
		if !r.Skipped {
			t.Fatalf("record %d not skipped after cancellation: %+v", i, r)
		}
	}
	if p.InUse() != 1 {
		t.Fatalf("cancelled batch changed pool occupancy: InUse=%d", p.InUse())
	}
}
