package schedule

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"testing"

	"repro/internal/conf"
	"repro/internal/journal"
	"repro/internal/tuners"
)

// TestCampaignInvariants runs random mixes of early-stopping,
// insatiable and panicking tasks, single- and multi-session, at random
// widths. Half the runs are killed at a random live evaluation and
// resumed from the ledger. After each (stitched) run it checks the
// campaign's accounting:
//   - live evaluations never exceed the sum of the base budgets;
//   - no evaluation runs twice: every live evaluation of a task that
//     did not panic is in its stitched traces.
func TestCampaignInvariants(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 2026))
	space := conf.SparkSpace()
	stopsSeen, failuresSeen, killsSeen := 0, 0, 0
	for run := 0; run < 40; run++ {
		dir := t.TempDir()
		width := 1 + rng.IntN(4)
		opts := CampaignOptions{
			LedgerPath:  dir + "/campaign.lgr",
			Sync:        journal.SyncNone,
			Seed:        uint64(run),
			Concurrency: width,
		}
		n := 2 + rng.IntN(5)
		stopAt := make([]int, n)    // an early stopper's trials; 0 = insatiable
		panicAt := make([]int32, n) // the task's nth live evaluation panics; 0 = never
		budgets := make([][]int, n)
		seeds := make([][]uint64, n)
		total := 0
		for i := range n {
			kind := rng.IntN(3) // 0 early stop, 1 insatiable, 2 panicking
			if kind == 0 {
				stopAt[i] = 1 + rng.IntN(3)
				stopsSeen++
			}
			taskBudget := 0
			for k := 1 + rng.IntN(3); k > 0; k-- {
				b := 4 + rng.IntN(6)
				budgets[i] = append(budgets[i], b)
				seeds[i] = append(seeds[i], rng.Uint64())
				taskBudget += b
			}
			total += taskBudget
			if kind == 2 {
				panicAt[i] = 1 + rng.Int32N(int32(taskBudget))
			}
		}
		killAt := int32(0) // the first run's nth live evaluation cancels it; 0 = never
		if rng.IntN(2) == 0 {
			killAt = 1 + rng.Int32N(int32(total))
		}

		// calls counts each task's live evaluations across both runs, so
		// a resumed task panics where the uninterrupted one would.
		calls := make([]int32, n)
		tasks := func(ctx context.Context, onLive func()) []Task {
			ts := make([]Task, n)
			for i := range ts {
				ts[i] = Task{Name: fmt.Sprintf("t%d", i), Space: space, New: func() tuners.Tuner { return tuners.RandomSearch{} }}
				if stopAt[i] > 0 {
					stop := earlyStopTuner{use: stopAt[i]}
					ts[i].New = func() tuners.Tuner { return stop }
				}
				for k, b := range budgets[i] {
					ts[i].Sessions = append(ts[i].Sessions, Session{
						Objective: func() tuners.Objective {
							return &tuners.FuncObjective{Fn: func(c conf.Config) (float64, bool) {
								if atomic.AddInt32(&calls[i], 1) == panicAt[i] {
									panic("injected")
								}
								if onLive != nil {
									onLive()
								}
								return detFn(c), true
							}}
						},
						Request:     tuners.Request{Budget: b, Seed: seeds[i][k], Ctx: ctx},
						JournalPath: fmt.Sprintf("%s/t%d.s%d.jnl", dir, i, k),
						Meta:        journal.Meta{Seed: seeds[i][k], Budget: b, Workload: ts[i].Name},
					})
				}
			}
			return ts
		}

		label := fmt.Sprintf("run %d (width %d, %d tasks, kill at %d)", run, width, n, killAt)
		ctx, cancel := context.WithCancel(context.Background())
		var live int32
		res, err := RunCampaign(tasks(ctx, func() {
			if atomic.AddInt32(&live, 1) == killAt {
				cancel()
			}
		}), opts)
		killed := ctx.Err() != nil
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if killed {
			killsSeen++
			if res, err = RunCampaign(tasks(nil, nil), opts); err != nil {
				t.Fatalf("%s: resume: %v", label, err)
			}
		}
		for i, out := range res.Tasks {
			if out.Failed != "" {
				failuresSeen++
			}
			if failed := out.Failed != ""; failed != (panicAt[i] > 0) || (!failed && len(out.Results) != len(budgets[i])) {
				t.Fatalf("%s: task %d outcome failed=%q with %d results (panicking=%v)", label, i, out.Failed, len(out.Results), panicAt[i] > 0)
			}
			if out.Failed != "" {
				continue
			}
			trials := 0
			for _, r := range out.Results {
				trials += len(r.Trace)
			}
			if trials != int(calls[i]) {
				t.Fatalf("%s: task %d ran %d live evaluations for %d stitched trials", label, i, calls[i], trials)
			}
		}

		spent := 0
		for i := range calls {
			spent += int(calls[i])
		}
		if spent > total {
			t.Fatalf("%s: %d live evaluations > %d budgeted", label, spent, total)
		}
	}
	if stopsSeen == 0 || failuresSeen == 0 || killsSeen == 0 {
		t.Fatalf("the random mixes drew %d early stoppers, %d failed tasks and %d kills; the invariants went unexercised", stopsSeen, failuresSeen, killsSeen)
	}
}
