package experiments

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/conf"
	"repro/internal/journal"
	"repro/internal/memo"
	"repro/internal/schedule"
	"repro/internal/tuners"
)

// CampaignInfo reports what the durable comparison campaign reused or
// lost across restarts.
type CampaignInfo struct {
	// LedgerPath is the campaign ledger file.
	LedgerPath string
	// Resumed is true when the ledger carried records from an earlier
	// run.
	Resumed bool
	// Reused is how many (workload, tuner, repeat) tasks were satisfied
	// straight from done records, with zero evaluations spent.
	Reused int
	// Failed names tasks that crashed (this run or a recorded one);
	// their sessions are absent from the comparison. Only a durable
	// grid reports failures; a ledger-less one panics on them.
	Failed []string
	// Err is the first failure of the ledger or a session journal
	// (schedule.CampaignResult.Err). The grid's numbers stand, but a
	// later resume may re-run work this run could not record.
	Err error
}

// fingerprint condenses the result-affecting configuration into the
// ledger manifest, so resuming with a different grid fails fast
// instead of stitching incompatible halves. Workers and Concurrency
// are deliberately absent — they change wall-clock, never results.
func (c Config) fingerprint() string {
	return fmt.Sprintf("budget=%d repeats=%d measure=%d fast=%t faults=%+v retries=%d",
		c.Budget, c.Repeats, c.MeasureReps, c.Fast, c.Faults, c.Retry.MaxRetries)
}

// gridCell is one (workload, tuner, repeat) task of a tuning grid.
type gridCell struct {
	workload, tuner string
	rep             int
}

// tuningGrid is the §5 evaluation loop over one backend: every cell's
// tuner tunes the workload's first `datasets` datasets in order (D1 →
// D2 → ...) with one memoization store, reproducing the paper's
// repeated-workload setup; every cell starts cold.
type tuningGrid struct {
	cfg      Config
	bk       backend.Backend
	cells    []gridCell
	datasets int
	// salt separates the session seeds of grids that share workload
	// and tuner names.
	salt string
}

// evaluator builds a tuning evaluator for dataset di of a workload at
// the backend's default cap.
func (g tuningGrid) evaluator(workload string, di int, seed uint64) backend.Evaluator {
	w, err := g.bk.Workload(workload, di)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	ev, err := g.bk.NewEvaluator(w, seed, g.bk.DefaultCap(), g.cfg.Faults)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return ev
}

// measure is the fault-free quality of c on dataset di of a workload,
// averaged over fresh runs with seeds shared by every tuner. Measure
// is a pure function of workload, configuration, repetitions and
// seed, so it needs no session's evaluator.
func (g tuningGrid) measure(workload string, di int, c conf.Config) float64 {
	ev := g.evaluator(workload, di, 0)
	m, ok := ev.(backend.Measurer)
	if !ok {
		panic(fmt.Sprintf("experiments: %T lacks the Measure capability the grid needs", ev))
	}
	return m.Measure(c, g.cfg.MeasureReps, g.cfg.measureSeed(di))
}

// measureSeed is the seed every measurement on dataset di shares: the
// grid's quality measurements and §5.2's run of the Spark default.
func (c Config) measureSeed(di int) uint64 { return c.Seed*77 + uint64(di) }

// run tunes every cell as one task of a schedule.RunCampaign campaign,
// up to cfg.Concurrency cells at once over a shared evaluation pool of
// the same size, and returns the sessions in cell order. With a
// ledgerPath the campaign is durable: the ledger records every cell
// and each session keeps a journal next to it (<ledger>.tNN.dK.jnl).
// Every cell owns its evaluators and its tuner, so concurrency and
// resumption change only wall-clock — the sessions and every number
// in them are bit-identical either way. Quality is measured from the
// returned results, so recorded and fresh cells take one path. A
// crashed cell is reported in CampaignInfo.Failed with a ledger and
// panics without one.
func (g tuningGrid) run(ledgerPath string) ([]Session, *CampaignInfo, error) {
	cfg := g.cfg
	seed := func(c gridCell, di int) uint64 {
		return cfg.Seed + uint64(c.rep)*1009 + uint64(di)*101 + hashName(c.workload+c.tuner+g.salt)
	}
	tasks := make([]schedule.Task, len(g.cells))
	for i, c := range g.cells {
		tasks[i] = schedule.Task{
			Name:  fmt.Sprintf("%s/%s/rep%d", c.workload, c.tuner, c.rep),
			Space: g.bk.Space(),
			New:   func() tuners.Tuner { return cfg.buildTuner(c.tuner, memo.NewStore()) },
		}
		for di := 0; di < g.datasets; di++ {
			s := schedule.Session{
				Objective: func() tuners.Objective { return g.evaluator(c.workload, di, seed(c, di)) },
				Request:   tuners.Request{Budget: cfg.Budget, Seed: seed(c, di), Retry: cfg.Retry},
			}
			if ledgerPath != "" {
				s.JournalPath = fmt.Sprintf("%s.t%02d.d%d.jnl", ledgerPath, i, di)
				s.Meta = journal.Meta{
					Seed:     seed(c, di),
					Budget:   cfg.Budget,
					Workload: c.workload,
					Dataset:  fmt.Sprintf("D%d", di+1),
					Tuner:    c.tuner,
					Retries:  cfg.Retry.MaxRetries,
				}
			}
			tasks[i].Sessions = append(tasks[i].Sessions, s)
		}
	}
	res, err := schedule.NewScheduler(cfg.Concurrency, cfg.Concurrency).RunCampaign(tasks, schedule.CampaignOptions{
		LedgerPath: ledgerPath,
		Sync:       journal.SyncAlways,
		Seed:       cfg.Seed,
		Config:     cfg.fingerprint(),
	})
	if err != nil {
		return nil, nil, err
	}
	info := &CampaignInfo{LedgerPath: ledgerPath, Resumed: res.Resumed, Err: res.Err}
	var sessions []Session
	for i, out := range res.Tasks {
		c := g.cells[i]
		if out.Failed != "" {
			if ledgerPath == "" {
				// Nothing records the failure without a ledger: fail loudly
				// rather than average the tables over a partial grid.
				panic(fmt.Sprintf("experiments: %s: %s", tasks[i].Name, out.Failed))
			}
			info.Failed = append(info.Failed, fmt.Sprintf("%s: %s", tasks[i].Name, out.Failed))
			continue
		}
		if out.Reused {
			info.Reused++
		}
		for di, r := range out.Results {
			quality := g.bk.DefaultCap()
			if r.Found {
				quality = g.measure(c.workload, di, r.Best)
			}
			sessions = append(sessions, Session{
				Tuner:         c.tuner,
				Workload:      c.workload,
				DatasetIdx:    di,
				Repeat:        c.rep,
				Quality:       quality,
				Found:         r.Found,
				SearchCost:    r.SearchCost,
				SelectionCost: r.SelectionCost,
				Trace:         r.Trace,
			})
		}
	}
	return sessions, info, nil
}

// RunComparisonDurable is RunComparison with campaign-level
// durability: every (workload, tuner, repeat) task is recorded in a
// CRC-framed campaign ledger at ledgerPath, and each of its three
// dataset sessions keeps a session journal next to it. A run killed
// at any point — including SIGKILL — resumes mid-grid: tasks with done
// records return their recorded sessions without re-running anything,
// in-flight tasks resume through their session journals, and the
// stitched Comparison is bit-identical to an uninterrupted run. A
// panicking task is recorded failed and the rest of the grid
// completes. A ledger written under another configuration or result
// format is refused.
//
// An empty ledgerPath runs without durability and is exactly
// RunComparison.
func RunComparisonDurable(cfg Config, filter func(workload string) bool, ledgerPath string) (*Comparison, *CampaignInfo, error) {
	cfg = cfg.withDefaults()
	g := tuningGrid{cfg: cfg, bk: sparkBackend(), datasets: 3}
	for _, wname := range WorkloadOrder {
		if filter != nil && !filter(wname) {
			continue
		}
		for _, tname := range TunerNames {
			for rep := 0; rep < cfg.Repeats; rep++ {
				g.cells = append(g.cells, gridCell{wname, tname, rep})
			}
		}
	}
	sessions, info, err := g.run(ledgerPath)
	if err != nil {
		return nil, nil, err
	}
	return &Comparison{Config: cfg, Sessions: sessions}, info, nil
}
