package schedule

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/backend"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/sparksim"
	"repro/internal/tuners"
)

// identified is the capability set a counted evaluator exposes: the
// objective contract plus stream restore and workload identity (the
// keys of ROBOTune's caches). Batch evaluation is left out so every
// evaluation passes through the counter.
type identified interface {
	tuners.Objective
	backend.StreamRestorer
	backend.Identifiable
}

// countedEval counts the live evaluations of a simulator evaluator;
// journal replay never reaches it.
type countedEval struct {
	identified
	calls *int32
	hook  func(n int32)
}

func (e countedEval) EvaluateSpec(c conf.Config, spec backend.EvalSpec) backend.EvalRecord {
	n := atomic.AddInt32(e.calls, 1)
	if e.hook != nil {
		e.hook(n)
	}
	return e.identified.EvaluateSpec(c, spec)
}

// queueSpace is shared by every queue task, so best configurations
// from separate runs compare with Config.Equal.
var queueSpace = conf.SparkSpace()

// queueSeed is session k's seed in a queue task seeded seed.
func queueSeed(seed uint64, k int) uint64 { return seed + uint64(k)*701 }

// queueTask is a recurring-workload queue as one task: the tuner
// newTuner builds tunes the workloads in order, session k on a private
// simulator evaluator seeded queueSeed(seed, k) and carrying the fault
// plan. calls[k] counts session k's live evaluations and hook sees
// each count before its evaluation runs. dir == "" builds a
// non-durable task.
func queueTask(newTuner func() tuners.Tuner, queue []sparksim.Workload, budget int, seed uint64, faults backend.FaultPlan, dir string, calls []int32, hook func(k int, n int32)) Task {
	t := Task{Name: "queue", Space: queueSpace, New: newTuner}
	for k, w := range queue {
		s := Session{
			Objective: func() tuners.Objective {
				ev := sparksim.NewEvaluator(sparksim.PaperCluster(), w, queueSeed(seed, k), 480)
				ev.Faults = faults
				var h func(int32)
				if hook != nil {
					h = func(n int32) { hook(k, n) }
				}
				return countedEval{identified: ev, calls: &calls[k], hook: h}
			},
			Request: tuners.Request{Budget: budget, Seed: queueSeed(seed, k)},
		}
		if dir != "" {
			s.JournalPath = fmt.Sprintf("%s/session%d.jnl", dir, k)
			s.Meta = journal.Meta{Seed: queueSeed(seed, k), Budget: budget, Workload: w.WorkloadName(), Dataset: w.DatasetName()}
		}
		t.Sessions = append(t.Sessions, s)
	}
	return t
}

// onlyTask runs one task and returns its outcome.
func onlyTask(t *testing.T, task Task, opts CampaignOptions) TaskOutcome {
	t.Helper()
	res, err := RunCampaign([]Task{task}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Tasks[0]
}

func sameResults(t *testing.T, label string, got, want []tuners.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d sessions vs %d", label, len(got), len(want))
	}
	for k := range got {
		sameResult(t, label, got[k], want[k])
		if got[k].Failures != want[k].Failures || got[k].SelectionEvals != want[k].SelectionEvals {
			t.Fatalf("%s: session %d ledger %+v/%d vs %+v/%d", label, k,
				got[k].Failures, got[k].SelectionEvals, want[k].Failures, want[k].SelectionEvals)
		}
	}
}

// TestCampaignAccumulatesKnowledge: one ROBOTune tuning a queue of
// recurring workloads as a single task keeps its selection cache
// across sessions — the first session of each family misses, every
// repeat hits (§2.2, §5.5).
func TestCampaignAccumulatesKnowledge(t *testing.T) {
	queue := []sparksim.Workload{
		sparksim.PageRank(5),
		sparksim.PageRank(7.5),
		sparksim.KMeans(200),
		sparksim.PageRank(10),
		sparksim.KMeans(300),
	}
	calls := make([]int32, len(queue))
	rt := core.New(nil, smallOptions())
	task := queueTask(func() tuners.Tuner { return rt }, queue, 25, 71, backend.FaultPlan{}, "", calls, nil)
	out := onlyTask(t, task, CampaignOptions{})
	if out.Failed != "" || len(out.Results) != len(queue) {
		t.Fatalf("queue outcome: failed %q, %d results", out.Failed, len(out.Results))
	}
	wantHits := []bool{false, true, false, true, true}
	var search, selection float64
	for k, r := range out.Results {
		if hit := r.SelectionEvals == 0; hit != wantHits[k] {
			t.Errorf("session %d (%s/%s): hit=%v want %v", k, queue[k].WorkloadName(), queue[k].DatasetName(), hit, wantHits[k])
		}
		if !r.Found {
			t.Fatalf("session %d found nothing", k)
		}
		ev := sparksim.NewEvaluator(sparksim.PaperCluster(), queue[k], queueSeed(71, k), 480)
		if q := ev.Measure(r.Best, 2, queueSeed(71, k)*3+11); q <= 0 || q > 480 {
			t.Errorf("session %d quality %v", k, q)
		}
		search += r.SearchCost
		selection += r.SelectionCost
	}
	if search <= 0 || selection <= 0 {
		t.Errorf("search cost %v, selection cost %v: want both accumulated", search, selection)
	}
}

// TestCampaignWithFaultsDeterministic: a multi-session task threads
// the fault plan and retry policy into every session and stays
// reproducible under them.
func TestCampaignWithFaultsDeterministic(t *testing.T) {
	queue := []sparksim.Workload{sparksim.TeraSort(20), sparksim.TeraSort(30)}
	run := func() []tuners.Result {
		calls := make([]int32, len(queue))
		task := queueTask(func() tuners.Tuner { return core.New(nil, smallOptions()) },
			queue, 15, 21, backend.DefaultFaultPlan(), "", calls, nil)
		for k := range task.Sessions {
			task.Sessions[k].Request.Retry = tuners.RetryPolicy{MaxRetries: 1}
		}
		return onlyTask(t, task, CampaignOptions{}).Results
	}
	a := run()
	if len(a) != len(queue) {
		t.Fatalf("%d sessions, want %d", len(a), len(queue))
	}
	injected := 0
	for _, r := range a {
		injected += r.Failures.Failed + r.Failures.Transient
	}
	if injected == 0 {
		t.Fatal("the default fault plan injected nothing; the test exercises no faults")
	}
	sameResults(t, "faulty queue rerun", run(), a)
}

// TestCampaignCancelledStopsSessions: a task whose context is already
// cancelled starts no session and builds no objective, and it stays
// unsettled — a later run with a live context tunes it in full.
func TestCampaignCancelledStopsSessions(t *testing.T) {
	queue := []sparksim.Workload{sparksim.TeraSort(20), sparksim.TeraSort(30)}
	dir := t.TempDir()
	opts := CampaignOptions{LedgerPath: dir + "/campaign.lgr", Seed: 1}
	var built int32
	mk := func(ctx context.Context) Task {
		calls := make([]int32, len(queue))
		task := queueTask(func() tuners.Tuner { return core.New(nil, smallOptions()) },
			queue, 10, 1, backend.FaultPlan{}, dir, calls, nil)
		for k := range task.Sessions {
			obj := task.Sessions[k].Objective
			task.Sessions[k].Objective = func() tuners.Objective { atomic.AddInt32(&built, 1); return obj() }
			task.Sessions[k].Request.Ctx = ctx
		}
		return task
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := onlyTask(t, mk(ctx), opts)
	if len(out.Results) != 0 || out.Failed != "" || built != 0 {
		t.Fatalf("cancelled task ran: %d results, failed %q, %d objectives built", len(out.Results), out.Failed, built)
	}
	out = onlyTask(t, mk(context.Background()), opts)
	if out.Reused || len(out.Results) != len(queue) {
		t.Fatalf("resumed task: reused=%v, %d results; want a full fresh run", out.Reused, len(out.Results))
	}
}

// TestCampaignResumesMidTask: a three-session task over one ROBOTune
// is killed during its second session. On resume the first session
// replays from its journal with zero live evaluations — rebuilding the
// selection cache and memo buffer the second session inherits — the
// second spends only what the kill left unspent, and the stitched
// results equal an uninterrupted run.
func TestCampaignResumesMidTask(t *testing.T) {
	const killAt = 5
	queue := []sparksim.Workload{sparksim.TeraSort(20), sparksim.TeraSort(30), sparksim.KMeans(2)}
	newTuner := func() tuners.Tuner {
		o := smallOptions()
		o.Parallel = 0
		return core.New(nil, o)
	}
	mk := func(dir string, calls []int32, hook func(int, int32), ctx context.Context) Task {
		task := queueTask(newTuner, queue, 12, 5, backend.FaultPlan{}, dir, calls, hook)
		for k := range task.Sessions {
			task.Sessions[k].Request.Ctx = ctx
		}
		return task
	}
	base := make([]int32, len(queue))
	want := onlyTask(t, mk("", base, nil, nil), CampaignOptions{})
	if len(want.Results) != len(queue) || want.Results[1].SelectionEvals != 0 {
		t.Fatalf("uninterrupted queue: %d results; the second session must be a cache hit", len(want.Results))
	}

	dir := t.TempDir()
	opts := CampaignOptions{LedgerPath: dir + "/campaign.lgr", Seed: 5}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killed := make([]int32, len(queue))
	out := onlyTask(t, mk(dir, killed, func(k int, n int32) {
		if k == 1 && n == killAt {
			cancel()
		}
	}, ctx), opts)
	if len(out.Results) != 2 || !out.Results[1].Cancelled || killed[2] != 0 {
		t.Fatalf("kill did not end the task in its second session: %d results, third session ran %d evaluations",
			len(out.Results), killed[2])
	}

	resumed := make([]int32, len(queue))
	out = onlyTask(t, mk(dir, resumed, nil, nil), opts)
	if out.Reused {
		t.Fatal("an interrupted task was settled from the ledger")
	}
	if resumed[0] != 0 {
		t.Fatalf("first session ran %d live evaluations on resume, want 0 (journal replay)", resumed[0])
	}
	if got := killed[1] + resumed[1]; got != base[1] {
		t.Fatalf("second session spent %d+%d live evaluations across the kill, want %d (zero re-execution)",
			killed[1], resumed[1], base[1])
	}
	sameResults(t, "stitched vs uninterrupted", out.Results, want.Results)
}

// TestCampaignRefusesChangedPolicy: the ledger manifest fingerprints
// the campaign's seed and configuration, so a campaign killed mid-task
// cannot be resumed under options that would stitch a history neither
// run produced; the refused resume runs nothing.
func TestCampaignRefusesChangedPolicy(t *testing.T) {
	space := conf.SparkSpace()
	dir := t.TempDir()
	opts := CampaignOptions{LedgerPath: dir + "/campaign.lgr", Seed: 2, Config: "budget=10"}
	mk := func(calls *int32, hook func(int32), ctx context.Context) []Task {
		ts := []Task{funcTask(space, "victim", tuners.RandomSearch{}, 10, 23, dir, calls, hook)}
		ts[0].Sessions[0].Request.Ctx = ctx
		return ts
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var killed int32
	res, err := RunCampaign(mk(&killed, func(n int32) {
		if n == 5 {
			cancel()
		}
	}, ctx), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tasks[0].Results[0].Cancelled {
		t.Fatal("kill did not interrupt the task")
	}
	for _, change := range []func(*CampaignOptions){
		func(o *CampaignOptions) { o.Seed = 3 },
		func(o *CampaignOptions) { o.Config = "budget=12" },
	} {
		o := opts
		change(&o)
		var calls int32
		_, err := RunCampaign(mk(&calls, nil, nil), o)
		if err == nil || !strings.Contains(err.Error(), "different campaign") {
			t.Fatalf("resume with %+v accepted (err %v)", o, err)
		}
		if calls != 0 {
			t.Fatalf("refused resume ran %d evaluations", calls)
		}
	}
}
