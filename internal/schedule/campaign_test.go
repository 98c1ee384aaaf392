package schedule

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
		if out.Failed != "" || out.Reused || !out.Results[0].Found {
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
		sameResult(t, "ledger resume", res2.Tasks[i].Results[0], res1.Tasks[i].Results[0])
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
			ts[1].Sessions[0].Request.Ctx = ctx
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
	run1Tasks[1].Sessions[0].Request.Ctx = ctx
	res1, err := sched.RunCampaign(run1Tasks, opts)
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
		ts[1].Sessions[0].Objective = func() tuners.Objective { return panicObjective(boom, 4) }
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
		if res1.Tasks[i].Failed != "" || !res1.Tasks[i].Results[0].Found {
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
		t1.Sessions[0].Request.Ctx = ctx
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
	if got := len(off.Tasks[1].Results[0].Trace); got != 10 {
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
	if got := len(run1.Tasks[1].Results[0].Trace); got != 25 {
		t.Fatalf("absorber ran %d trials with reallocation, want 25 (10 base + 15 granted)", got)
	}

	// Extension equivalence: granted budget spends exactly like base
	// budget — the extended session matches a direct run at 25.
	var direct int32
	obj := countingObjective(&direct, nil)
	want := tuners.RandomSearch{}.Run(tuners.NewSession(obj, space, tuners.Request{Budget: 25, Seed: 23}))
	sameResult(t, "extended vs direct", run1.Tasks[1].Results[0], want)

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
	if !res1.Tasks[1].Results[0].Cancelled {
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
	sameResult(t, "grant replay", res2.Tasks[1].Results[0], want.Tasks[1].Results[0])
	assertSameGrants(t, res2.Grants, want.Grants)
	if res2.Unused != want.Unused {
		t.Fatalf("unused mismatch: %d resumed vs %d uninterrupted", res2.Unused, want.Unused)
	}
}

// declineTasks: task 0 tunes two random-search sessions of 5 trials;
// task 1 early-stops after one trial of 10 and banks 9. The hooks fix
// the order at width 2: task 1's trial waits until task 0's second
// session has begun, and that session's fifth live trial waits until
// task 1's done record is in the ledger. So the first session runs dry
// on an empty bank (a declined grant) and the second on a full one
// (grants of 5 and 4). kill sees each live trial of the second
// session.
func declineTasks(space *conf.Space, dir string, calls []int32, ctx context.Context, kill func(n int32)) []Task {
	second := make(chan struct{})
	var once sync.Once
	a := Task{Name: "two-sessions", Space: space, New: func() tuners.Tuner { return tuners.RandomSearch{} }}
	for k := range 2 {
		seed := uint64(31 + k)
		a.Sessions = append(a.Sessions, Session{
			Objective: func() tuners.Objective {
				return countingObjective(&calls[k], func(n int32) {
					if k == 0 {
						return
					}
					once.Do(func() { close(second) })
					if n == 5 {
						awaitDoneRecord(dir + "/campaign.lgr")
					}
					if kill != nil {
						kill(n)
					}
				})
			},
			Request:     tuners.Request{Budget: 5, Seed: seed, Ctx: ctx},
			JournalPath: fmt.Sprintf("%s/two-sessions.s%d.jnl", dir, k),
			Meta:        journal.Meta{Seed: seed, Budget: 5, Tuner: "RandomSearch", Workload: "two-sessions"},
		})
	}
	b := funcTask(space, "stopper", earlyStopTuner{use: 1}, 10, 37, dir, &calls[2], func(int32) { <-second })
	return []Task{a, b}
}

// awaitDoneRecord polls the ledger file until it holds a done record
// (or ten seconds pass). The campaign appends the record and banks the
// task's surplus under one lock, so a grant decided after this returns
// sees the deposit.
func awaitDoneRecord(path string) {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if data, _ := os.ReadFile(path); bytes.Contains(data, []byte(`"t":"done"`)) {
			return
		}
	}
}

// TestCampaignDeclinedGrantReplay: a multi-session task whose first
// session ran dry on an empty bank and whose second session drew a
// grant is killed inside the second session. On resume each session
// replays only its own grant decisions: the first declines again, even
// though the restored bank is no longer empty, and replays with zero
// live evaluations; the second re-applies its grant. The stitched
// results and grants equal the uninterrupted run's.
func TestCampaignDeclinedGrantReplay(t *testing.T) {
	const killAt = 7 // 5 base trials + 2 into the first grant
	space := conf.SparkSpace()
	sched := NewScheduler(2, 2)

	wantDir := t.TempDir()
	base := make([]int32, 3)
	want, err := sched.RunCampaign(declineTasks(space, wantDir, base, nil, nil),
		CampaignOptions{LedgerPath: wantDir + "/campaign.lgr", Reallocate: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := []int{len(want.Tasks[0].Results[0].Trace), len(want.Tasks[0].Results[1].Trace)}; got[0] != 5 || got[1] != 14 {
		t.Fatalf("uninterrupted sessions ran %v trials, want [5 14] (a declined grant, then grants of 5 and 4)", got)
	}

	dir := t.TempDir()
	opts := CampaignOptions{LedgerPath: dir + "/campaign.lgr", Reallocate: true, Seed: 3}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killed := make([]int32, 3)
	res1, err := sched.RunCampaign(declineTasks(space, dir, killed, ctx, func(n int32) {
		if n == killAt {
			cancel()
		}
	}), opts)
	if err != nil {
		t.Fatal(err)
	}
	if out := res1.Tasks[0]; len(out.Results) != 2 || !out.Results[1].Cancelled || len(res1.Grants) != 1 {
		t.Fatalf("kill did not land in the second session after its first grant: %d results, grants %+v", len(out.Results), res1.Grants)
	}

	resumed := make([]int32, 3)
	res2, err := sched.RunCampaign(declineTasks(space, dir, resumed, nil, nil), opts)
	if err != nil {
		t.Fatal(err)
	}
	if resumed[0] != 0 || resumed[2] != 0 {
		t.Fatalf("resume re-ran the finished first session (%d live evaluations) or the settled stopper (%d)", resumed[0], resumed[2])
	}
	if got := killed[1] + resumed[1]; got != base[1] {
		t.Fatalf("second session spent %d+%d live evaluations across the kill, want %d (zero re-execution)", killed[1], resumed[1], base[1])
	}
	sameResults(t, "stitched vs uninterrupted", res2.Tasks[0].Results, want.Tasks[0].Results)
	assertSameGrants(t, res2.Grants, want.Grants)
	if res2.Unused != want.Unused {
		t.Fatalf("unused mismatch: %d resumed vs %d uninterrupted", res2.Unused, want.Unused)
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
