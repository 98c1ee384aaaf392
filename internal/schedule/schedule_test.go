package schedule

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/sparksim"
	"repro/internal/tuners"
)

func smallOptions() core.Options {
	o := core.Options{}
	o.GenericSamples = 12
	o.TuningSamples = 6
	o.Forest.Trees = 15
	o.PermuteRepeats = 2
	o.BO.CandidatePool = 32
	o.BO.Starts = 1
	o.BO.GPRestarts = 1
	// Exercise the batched selection waves too: their results must
	// not depend on campaign concurrency either.
	o.Parallel = 4
	return o
}

// campaignTasks builds a mixed campaign: one single-session task per
// tuner family, each with a private evaluator, plus a second ROBOTune
// workload so the campaign is at least five tasks. The space is shared
// so best configs from separate runs are comparable with Config.Equal.
func campaignTasks(space *conf.Space) []Task {
	cluster := sparksim.PaperCluster()
	mk := func(tn tuners.Tuner, w sparksim.Workload, evSeed uint64, budget int, seed uint64) Task {
		return Task{
			Name:  tn.Name(),
			Space: space,
			New:   func() tuners.Tuner { return tn },
			Sessions: []Session{{
				Objective: func() tuners.Objective { return sparksim.NewEvaluator(cluster, w, evSeed, 480) },
				Request:   tuners.Request{Budget: budget, Seed: seed},
			}},
		}
	}
	return []Task{
		mk(core.New(nil, smallOptions()), sparksim.TeraSort(20), 17, 14, 11),
		mk(tuners.RandomSearch{}, sparksim.KMeans(4), 23, 12, 5),
		mk(tuners.BestConfig{RoundSize: 6}, sparksim.PageRank(2), 31, 12, 7),
		mk(tuners.Gunther{PopSize: 6, Elite: 2}, sparksim.TeraSort(10), 41, 14, 9),
		mk(core.New(nil, smallOptions()), sparksim.KMeans(2), 53, 12, 13),
	}
}

// runResults runs tasks as a non-durable campaign, concurrency tasks
// at once, and returns each task's single session result.
func runResults(t *testing.T, concurrency int, tasks []Task) []tuners.Result {
	t.Helper()
	res, err := RunCampaign(tasks, CampaignOptions{Concurrency: concurrency})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]tuners.Result, len(res.Tasks))
	for i, o := range res.Tasks {
		if len(o.Results) != 1 {
			t.Fatalf("task %d: %d results (failed %q)", i, len(o.Results), o.Failed)
		}
		out[i] = o.Results[0]
	}
	return out
}

func sameResult(t *testing.T, label string, a, b tuners.Result) {
	t.Helper()
	if a.Found != b.Found || a.BestSeconds != b.BestSeconds {
		t.Fatalf("%s: best mismatch: (%v, %v) vs (%v, %v)",
			label, a.Found, a.BestSeconds, b.Found, b.BestSeconds)
	}
	if a.Evals != b.Evals || a.SearchCost != b.SearchCost {
		t.Fatalf("%s: cost mismatch: (%d, %v) vs (%d, %v)",
			label, a.Evals, a.SearchCost, b.Evals, b.SearchCost)
	}
	if len(a.Trace) != len(b.Trace) {
		t.Fatalf("%s: trace length %d vs %d", label, len(a.Trace), len(b.Trace))
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			t.Fatalf("%s: trace[%d] = %v vs %v", label, i, a.Trace[i], b.Trace[i])
		}
	}
	if len(a.Completed) != len(b.Completed) {
		t.Fatalf("%s: completed length %d vs %d", label, len(a.Completed), len(b.Completed))
	}
	for i := range a.Completed {
		if a.Completed[i] != b.Completed[i] {
			t.Fatalf("%s: completed[%d] = %v vs %v", label, i, a.Completed[i], b.Completed[i])
		}
	}
	if a.Found && !a.Best.Equal(b.Best) {
		t.Fatalf("%s: best config differs", label)
	}
}

// TestCampaignConcurrencyInvariance is the campaign's core promise: a
// five-session campaign produces bit-identical results whether its
// tasks run one at a time or all at once, and matches unscheduled
// direct runs.
func TestCampaignConcurrencyInvariance(t *testing.T) {
	space := conf.SparkSpace()
	direct := make([]tuners.Result, 0, 5)
	for _, tk := range campaignTasks(space) {
		s := tk.Sessions[0]
		direct = append(direct, tk.New().Run(tuners.NewSession(s.Objective(), tk.Space, s.Request)))
	}

	serial := runResults(t, 1, campaignTasks(space))
	wide := runResults(t, 8, campaignTasks(space))

	if len(serial) != len(direct) || len(wide) != len(direct) {
		t.Fatalf("result count mismatch: %d direct, %d serial, %d wide",
			len(direct), len(serial), len(wide))
	}
	for i := range direct {
		sameResult(t, "concurrency=1 vs direct", serial[i], direct[i])
		sameResult(t, "concurrency=8 vs direct", wide[i], direct[i])
	}
}

// TestSessionLimit bounds in-flight tasks without dropping any.
func TestSessionLimit(t *testing.T) {
	tasks := campaignTasks(conf.SparkSpace())[:4]
	res := runResults(t, 2, tasks)
	if len(res) != len(tasks) {
		t.Fatalf("got %d results for %d tasks", len(res), len(tasks))
	}
	for i, r := range res {
		if len(r.Trace) == 0 {
			t.Fatalf("task %d produced an empty trace", i)
		}
	}
}

// TestSchedulerZeroSessionsIsSerial: a concurrency <= 0 means one
// task at a time ("<= 1 = serial"), not every task at once, and a
// concurrency of 2 never has more than two tasks in flight. Each
// objective yields mid-evaluation and records how many tasks are
// between their first and their last evaluation.
func TestSchedulerZeroSessionsIsSerial(t *testing.T) {
	const budget = 5
	for _, limit := range []int{0, -3, 2} {
		var mu sync.Mutex
		inFlight, peak := 0, 0
		tasks := make([]Task, 4)
		for i := range tasks {
			calls := 0
			obj := &tuners.FuncObjective{Fn: func(c conf.Config) (float64, bool) {
				mu.Lock()
				calls++
				if calls == 1 {
					inFlight++
					peak = max(peak, inFlight)
				}
				last := calls == budget
				mu.Unlock()
				runtime.Gosched()
				time.Sleep(time.Millisecond)
				if last {
					mu.Lock()
					inFlight--
					mu.Unlock()
				}
				return detFn(c), true
			}}
			tasks[i] = Task{
				Name:  fmt.Sprintf("t%d", i),
				Space: conf.SparkSpace(),
				New:   func() tuners.Tuner { return tuners.RandomSearch{} },
				Sessions: []Session{{
					Objective: func() tuners.Objective { return obj },
					Request:   tuners.Request{Budget: budget, Seed: uint64(i + 1)},
				}},
			}
		}
		runResults(t, limit, tasks)
		if want := max(limit, 1); peak > want {
			t.Fatalf("Concurrency %d: %d tasks in flight at once, want at most %d", limit, peak, want)
		}
	}
}
