// Campaign-level durability: the scheduler's task list, made crash
// safe. A Campaign is a list of tuning tasks multiplexed over the
// shared pool like Scheduler.Run, plus a CRC-framed campaign ledger
// (journal.Ledger — same framing as the per-session journals) that
// records which tasks started, finished or failed, where each task's
// session journal lives, and every adaptive-budget grant. A campaign
// killed at any point — including SIGKILL — resumes mid-grid:
// completed tasks are skipped via their done records (their recorded
// results are returned without constructing a tuner or touching an
// objective), in-flight tasks resume through their session journals,
// and the stitched result is bit-identical to an uninterrupted run.
//
// On top of the ledger sits the adaptive budget pool: evaluations
// unspent by early-stopped or failed sessions are banked, and
// still-running sessions whose tuners exhaust their base budget draw
// from the bank as extended Request.Budget. Every grant is journaled
// before it is applied (write-ahead), so a resumed campaign re-applies
// exactly the grants the original run decided, at the same points in
// each task's trial sequence — grant replay is what keeps extended
// sessions bit-identical across kills. With a serial scheduler
// (sessions=1) the grant sequence is fully deterministic across fresh
// runs as well; under concurrency it depends on completion timing, and
// the ledger is precisely what makes that timing-dependent history
// reproducible on resume.
package schedule

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"repro/internal/conf"
	"repro/internal/journal"
	"repro/internal/tuners"
)

// Task is one tuning session of a durable campaign. New constructs
// the tuner and its private objective — a factory rather than values,
// because a resumed campaign must build fresh instances for the tasks
// it actually replays and must build nothing at all for tasks its
// ledger already settled.
type Task struct {
	// Name identifies the task in the ledger manifest; the task list
	// (names, order, journal paths) must match on resume.
	Name string
	// New builds the task's tuner and objective.
	New func() (tuners.Tuner, tuners.Objective)
	// Space is the search space (also used to decode recorded results).
	Space *conf.Space
	// Request is the session request; Journal and Grants are owned by
	// the campaign and must be left nil.
	Request tuners.Request
	// JournalPath, when set, makes the task's session durable; Meta is
	// the session identity its journal is validated against.
	JournalPath string
	Meta        journal.Meta
}

// CampaignOptions configures a durable campaign run.
type CampaignOptions struct {
	// LedgerPath is the campaign ledger file; "" runs the campaign
	// without durability (and without budget reallocation journaling —
	// grants then live only in memory).
	LedgerPath string
	// Sync is the fsync policy for the ledger and all session journals.
	Sync journal.SyncPolicy
	// Reallocate enables the adaptive budget pool. Off, unspent
	// evaluations are only reported (CampaignResult.Unused), exactly
	// like the plain scheduler.
	Reallocate bool
	// GrantChunk caps a single grant (0 = the receiving task's base
	// budget). Chunking keeps one insatiable session from draining the
	// whole bank in one draw.
	GrantChunk int
	// Seed and Config fingerprint the campaign in the ledger manifest;
	// resume validates both.
	Seed   uint64
	Config string
}

// TaskOutcome is one task's stitched outcome.
type TaskOutcome struct {
	// Result is the session result — recorded or freshly run. For a
	// failed task it is the zero Result.
	Result tuners.Result
	// Failed is the panic (or setup-failure) reason, "" on success.
	Failed string
	// Reused is true when the outcome was satisfied from the ledger
	// without constructing the task's tuner or objective.
	Reused bool
}

// CampaignResult is the stitched campaign outcome.
type CampaignResult struct {
	// Tasks holds one outcome per task, in task order.
	Tasks []TaskOutcome
	// Grants is every budget grant applied across the campaign's
	// lifetime (recorded runs included), in grant order.
	Grants []journal.Grant
	// Unused is the number of unspent evaluations left in the budget
	// pool at campaign end: surpluses deposited minus grants drawn.
	Unused int
	// Resumed is true when the ledger carried records from a previous
	// run.
	Resumed bool
	// Recovery reports what ledger recovery found and truncated.
	Recovery journal.RecoveryInfo
}

// Results returns just the task results, in task order (failed tasks
// contribute their zero Result).
func (r *CampaignResult) Results() []tuners.Result {
	out := make([]tuners.Result, len(r.Tasks))
	for i, t := range r.Tasks {
		out[i] = t.Result
	}
	return out
}

// campaign is the run state shared by all task goroutines.
type campaign struct {
	tasks []Task
	opts  CampaignOptions
	led   *journal.Ledger

	mu       sync.Mutex
	out      []TaskOutcome
	settled  []bool  // outcome prefilled from the ledger; do not run
	granted  []int   // extra budget applied per task (all runs)
	replay   [][]int // recorded grants not yet re-applied, per task
	grants   []journal.Grant
	grantSeq int
	bank     int // unspent evaluations available for reallocation
}

// RunCampaign executes tasks as a durable campaign over the
// scheduler's pool and session limit. Each task runs with per-task
// panic containment: a panicking session is recorded as failed in the
// ledger (its pool slots are released by the unwinding evaluation
// defers), and the remaining sessions run to completion. On return
// the pool is asserted idle — a non-zero slot count is a scheduler
// bug and surfaces as an error rather than a silent leak.
func (s *Scheduler) RunCampaign(tasks []Task, opts CampaignOptions) (*CampaignResult, error) {
	c := &campaign{
		tasks:   tasks,
		opts:    opts,
		out:     make([]TaskOutcome, len(tasks)),
		settled: make([]bool, len(tasks)),
		granted: make([]int, len(tasks)),
		replay:  make([][]int, len(tasks)),
	}
	res := &CampaignResult{}
	if opts.LedgerPath != "" {
		meta := journal.LedgerMeta{Seed: opts.Seed, Config: opts.Config}
		for _, t := range tasks {
			meta.Tasks = append(meta.Tasks, t.Name)
			meta.Journals = append(meta.Journals, t.JournalPath)
		}
		led, err := journal.OpenLedger(opts.LedgerPath, meta, opts.Sync)
		if err != nil {
			return nil, err
		}
		defer led.Close()
		c.led = led
		res.Resumed = led.Resumed()
		res.Recovery = led.Recovery()
		if err := c.restore(); err != nil {
			return nil, err
		}
	}

	s.RunTasks(len(tasks), func(i int, pool *Pool) { c.runTask(i, pool) })

	if leaked := s.pool.InUse(); leaked != 0 {
		return nil, fmt.Errorf("schedule: %d evaluation slot(s) still held at campaign teardown (scheduler bug)", leaked)
	}
	res.Tasks = c.out
	res.Grants = append([]journal.Grant(nil), c.grants...)
	res.Unused = c.bank
	return res, nil
}

// restore rebuilds the campaign's resume state from the recovered
// ledger: settled outcomes for done/failed tasks, per-task grant
// replay queues, and the budget bank (deposits minus draws).
func (c *campaign) restore() error {
	for _, g := range c.led.Grants() {
		c.granted[g.Task] += g.Evals
		c.replay[g.Task] = append(c.replay[g.Task], g.Evals)
		c.grants = append(c.grants, g)
		if g.Seq >= c.grantSeq {
			c.grantSeq = g.Seq + 1
		}
		c.bank -= g.Evals
	}
	for i := range c.tasks {
		if d, ok := c.led.TaskDone(i); ok {
			r, err := decodeResult(c.tasks[i].Space, d.Result)
			if err != nil {
				return fmt.Errorf("schedule: task %d (%s): recorded result unreadable: %w", i, c.tasks[i].Name, err)
			}
			c.out[i] = TaskOutcome{Result: r, Reused: true}
			c.settled[i] = true
			c.replay[i] = nil // its grants are already inside the recorded result
			c.bank += d.Surplus
		} else if f, ok := c.led.TaskFailed(i); ok {
			c.out[i] = TaskOutcome{Failed: f.Reason, Reused: true}
			c.settled[i] = true
			c.replay[i] = nil
			c.bank += f.Surplus
		}
	}
	return nil
}

func (c *campaign) runTask(i int, pool *Pool) {
	c.mu.Lock()
	skip := c.settled[i]
	c.mu.Unlock()
	if skip {
		return
	}
	if c.led != nil {
		_ = c.led.AppendStart(i)
	}
	c.out[i] = c.execute(i, pool)
}

// execute runs one task with panic containment. The recover is the
// campaign's crash boundary: a panicking tuner or objective unwinds
// through the pool wrapper's deferred releases (so no slot leaks),
// lands here, is recorded as failed in the ledger with whatever
// budget it left unspent surrendered to the pool, and the campaign
// carries on.
func (c *campaign) execute(i int, pool *Pool) (out TaskOutcome) {
	t := c.tasks[i]
	var jn *journal.Journal
	var ses *tuners.Session
	defer func() {
		if p := recover(); p != nil {
			trials := 0
			if ses != nil {
				trials = ses.Trials()
			}
			reason := fmt.Sprintf("panic: %v", p)
			c.fail(i, reason, trials)
			out = TaskOutcome{Failed: reason}
		}
		if jn != nil {
			jn.Close()
		}
	}()

	tn, obj := t.New()
	req := t.Request
	if t.JournalPath != "" {
		var err error
		jn, err = journal.Open(t.JournalPath, t.Meta, c.opts.Sync)
		if err != nil {
			// An unopenable session journal is an environment problem,
			// not a session crash: report it in the outcome but write no
			// failed record, so a corrected environment can still resume
			// the task.
			return TaskOutcome{Failed: fmt.Sprintf("journal: %v", err)}
		}
		req.Journal = jn
	}
	c.mu.Lock()
	wantGrants := c.opts.Reallocate || len(c.replay[i]) > 0
	c.mu.Unlock()
	if wantGrants {
		req.Grants = &taskGrants{c: c, task: i}
	}
	ses = tuners.NewSession(pool.Wrap(obj), t.Space, req)
	res := tn.Run(ses)
	c.complete(i, res)
	return TaskOutcome{Result: res}
}

// complete settles a finished task: its surplus (base + granted
// budget minus trials actually consumed) is recorded and deposited in
// the bank. A cancelled session is deliberately not settled — no done
// record, no deposit — so its journal stays resumable.
func (c *campaign) complete(i int, res tuners.Result) {
	if res.Cancelled {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	trials := len(res.Trace)
	surplus := c.tasks[i].Request.Budget + c.granted[i] - trials
	if surplus < 0 {
		surplus = 0
	}
	if c.led != nil {
		payload, err := encodeResult(res)
		if err != nil {
			payload = nil
		}
		_ = c.led.AppendTaskDone(journal.TaskDone{Task: i, Trials: trials, Surplus: surplus, Result: payload})
	}
	c.bank += surplus
}

// fail settles a crashed task; its unspent budget flows back to the
// pool like a completed task's.
func (c *campaign) fail(i int, reason string, trials int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	surplus := c.tasks[i].Request.Budget + c.granted[i] - trials
	if surplus < 0 {
		surplus = 0
	}
	if c.led != nil {
		_ = c.led.AppendTaskFailed(journal.TaskFailed{Task: i, Reason: reason, Trials: trials, Surplus: surplus})
	}
	c.bank += surplus
}

// taskGrants adapts the campaign's budget pool to one session's
// tuners.GrantSource.
type taskGrants struct {
	c    *campaign
	task int
}

// Grant implements tuners.GrantSource. Recorded grants replay first —
// a resumed task re-applies the grants its original run received, in
// order, at whatever points its replaying tuner runs dry (the same
// points the original hit, since the decision path is deterministic).
// Only once the replay queue is empty are new grants decided, drawn
// from the bank and journaled write-ahead before being applied.
func (g *taskGrants) Grant(trials int) int {
	c := g.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if q := c.replay[g.task]; len(q) > 0 {
		n := q[0]
		c.replay[g.task] = q[1:]
		return n
	}
	if !c.opts.Reallocate || c.bank <= 0 {
		return 0
	}
	n := c.bank
	chunk := c.opts.GrantChunk
	if chunk <= 0 {
		chunk = c.tasks[g.task].Request.Budget
	}
	if chunk > 0 && n > chunk {
		n = chunk
	}
	gr := journal.Grant{Seq: c.grantSeq, Task: g.task, Evals: n, Trials: trials}
	if c.led != nil {
		if err := c.led.AppendGrant(gr); err != nil {
			// A grant that cannot be journaled must not be applied: an
			// unrecorded grant would make the resumed run diverge from
			// this one. Declining costs only optimization opportunity.
			return 0
		}
	}
	c.grantSeq++
	c.bank -= n
	c.granted[g.task] += n
	c.grants = append(c.grants, gr)
	return n
}

// savedResult is the ledger's JSON image of a tuners.Result. JSON
// round-trips float64 bit-exactly (Go marshals the shortest
// representation that parses back to the same value), so a decoded
// result compares equal to the live one field for field. BestSeconds
// is gated on Found because its not-found value is +Inf, which JSON
// cannot encode.
type savedResult struct {
	Best               map[string]float64    `json:"best,omitempty"`
	BestSeconds        float64               `json:"best_seconds,omitempty"`
	Found              bool                  `json:"found"`
	Evals              int                   `json:"evals"`
	SearchCost         float64               `json:"search_cost"`
	Trace              []float64             `json:"trace,omitempty"`
	Completed          []bool                `json:"completed,omitempty"`
	Proxy              []bool                `json:"proxy,omitempty"`
	SelectedParams     []string              `json:"selected_params,omitempty"`
	SelectionEvals     int                   `json:"selection_evals,omitempty"`
	SelectionCost      float64               `json:"selection_cost,omitempty"`
	Failures           journal.FailureCounts `json:"failures"`
	SurrogateFallbacks int                   `json:"surrogate_fallbacks,omitempty"`
}

func encodeResult(res tuners.Result) (json.RawMessage, error) {
	sr := savedResult{
		Found:              res.Found,
		Evals:              res.Evals,
		SearchCost:         res.SearchCost,
		Trace:              res.Trace,
		Completed:          res.Completed,
		Proxy:              res.Proxy,
		SelectedParams:     res.SelectedParams,
		SelectionEvals:     res.SelectionEvals,
		SelectionCost:      res.SelectionCost,
		Failures:           res.Failures.Counts(),
		SurrogateFallbacks: res.SurrogateFallbacks,
	}
	if res.Found {
		sr.Best = res.Best.ToMap()
		sr.BestSeconds = res.BestSeconds
	}
	return json.Marshal(sr)
}

func decodeResult(space *conf.Space, data json.RawMessage) (tuners.Result, error) {
	var sr savedResult
	if err := json.Unmarshal(data, &sr); err != nil {
		return tuners.Result{}, err
	}
	res := tuners.Result{
		BestSeconds:        math.Inf(1),
		Found:              sr.Found,
		Evals:              sr.Evals,
		SearchCost:         sr.SearchCost,
		Trace:              sr.Trace,
		Completed:          sr.Completed,
		Proxy:              sr.Proxy,
		SelectedParams:     sr.SelectedParams,
		SelectionEvals:     sr.SelectionEvals,
		SelectionCost:      sr.SelectionCost,
		SurrogateFallbacks: sr.SurrogateFallbacks,
		Failures: tuners.FailureStats{
			Failed:         sr.Failures.Failed,
			Transient:      sr.Failures.Transient,
			Retries:        sr.Failures.Retries,
			OOM:            sr.Failures.OOM,
			Infeasible:     sr.Failures.Infeasible,
			BackoffSeconds: sr.Failures.BackoffSeconds,
			Skipped:        sr.Failures.Skipped,
		},
	}
	if sr.Found {
		c, err := space.FromRaw(sr.Best)
		if err != nil {
			return tuners.Result{}, fmt.Errorf("best config: %w", err)
		}
		res.Best = c
		res.BestSeconds = sr.BestSeconds
	}
	return res, nil
}
