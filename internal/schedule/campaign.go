// Campaigns: the one runner for many tuning sessions. A campaign is a
// list of tasks multiplexed over the scheduler's pool; a task is one
// tuner plus the sessions it tunes in order — a single session, a
// grid cell's D1 → D2 → D3, or a whole recurring-workload queue over
// one ROBOTune whose selection cache and memo buffer carry from
// session to session. A CRC-framed campaign ledger (journal.Ledger —
// same framing as the per-session journals) records which tasks
// started, finished or failed, where their session journals live, and
// every adaptive-budget grant. A campaign killed at any point —
// including SIGKILL — resumes mid-grid: completed tasks are skipped
// via their done records (their recorded results are returned without
// constructing a tuner or touching an objective), in-flight tasks
// re-run their sessions through their session journals (a finished
// session replays with zero live evaluations, rebuilding whatever its
// tuner carries into the next one), and the stitched result is
// bit-identical to an uninterrupted run.
//
// On top of the ledger sits the adaptive budget pool: evaluations
// unspent by early-stopped or failed tasks are banked, and
// still-running sessions whose tuners exhaust their base budget draw
// from the bank as extended Request.Budget. Every grant decision —
// declines on an empty bank included — is journaled before it is
// applied (write-ahead) and stamped with the session that asked, so a
// resumed campaign hands each session exactly the decisions the
// original run made for it, at the same points in its trial sequence —
// grant replay is what keeps extended sessions bit-identical across
// kills. With a serial scheduler (sessions=1) the grant sequence is
// fully deterministic across fresh runs as well; under concurrency it
// depends on completion timing, and the ledger is precisely what makes
// that timing-dependent history reproducible on resume.
package schedule

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"

	"repro/internal/conf"
	"repro/internal/journal"
	"repro/internal/tuners"
)

// Task is one unit of a campaign: a tuner and the sessions it tunes,
// in order. New builds the tuner and each session builds its own
// objective — factories rather than values, because a resumed campaign
// must build fresh instances for the tasks it actually replays and
// must build nothing at all for tasks its ledger already settled.
type Task struct {
	// Name identifies the task in the ledger manifest; the task list
	// (names, order, journal paths) must match on resume.
	Name string
	// New builds the tuner every session of the task runs on.
	New func() tuners.Tuner
	// Space is the search space (also used to decode recorded results).
	Space *conf.Space
	// Sessions are tuned in order by the task's one tuner.
	Sessions []Session
}

// Session is one tuning session of a task.
type Session struct {
	// Objective builds the session's private objective.
	Objective func() tuners.Objective
	// Request is the session request; Journal and Grants are owned by
	// the campaign and must be left nil. A Ctx already cancelled when
	// the session is due ends the task without starting it.
	Request tuners.Request
	// JournalPath, when set, makes the session durable; Meta is the
	// session identity its journal is validated against.
	JournalPath string
	Meta        journal.Meta
}

// CampaignOptions configures a campaign run.
type CampaignOptions struct {
	// LedgerPath is the campaign ledger file; "" runs the campaign
	// without durability (and without budget reallocation journaling —
	// grants then live only in memory).
	LedgerPath string
	// Sync is the fsync policy for the ledger and all session journals.
	Sync journal.SyncPolicy
	// Reallocate enables the adaptive budget pool. Off, unspent
	// evaluations are only reported (CampaignResult.Unused).
	Reallocate bool
	// GrantChunk caps a single grant (0 = the receiving session's base
	// budget). Chunking keeps one insatiable session from draining the
	// whole bank in one draw.
	GrantChunk int
	// Seed and Config fingerprint the campaign in the ledger manifest;
	// resume validates both, together with the reallocation policy and
	// the done-record format.
	Seed   uint64
	Config string
}

// TaskOutcome is one task's stitched outcome.
type TaskOutcome struct {
	// Results holds the session results — recorded or freshly run — in
	// session order: all of them for a completed task, those up to and
	// including the cancelled one for an interrupted task, none for a
	// failed task.
	Results []tuners.Result
	// Failed is the panic (or setup-failure) reason, "" on success.
	Failed string
	// Reused is true when the outcome was satisfied from the ledger
	// without constructing the task's tuner or objectives.
	Reused bool
}

// CampaignResult is the stitched campaign outcome.
type CampaignResult struct {
	// Tasks holds one outcome per task, in task order.
	Tasks []TaskOutcome
	// Grants is every budget grant applied across the campaign's
	// lifetime (recorded runs included), in grant order; declines are
	// recorded in the ledger but not listed.
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

// campaign is the run state shared by all task goroutines.
type campaign struct {
	tasks []Task
	opts  CampaignOptions
	led   *journal.Ledger

	// replay holds the recorded grant decisions per (task, session), in
	// order; filled by restore before any task runs, read-only after.
	replay map[[2]int][]int

	mu       sync.Mutex
	out      []TaskOutcome
	settled  []bool // outcome prefilled from the ledger; do not run
	granted  []int  // extra budget applied per task (all runs)
	grants   []journal.Grant
	grantSeq int
	bank     int // unspent evaluations available for reallocation
}

// RunCampaign executes tasks as a campaign over the scheduler's pool
// and task limit, durably when opts.LedgerPath is set. Each task
// builds its tuner once and tunes its sessions in order; the first
// cancelled session ends the task unsettled (no done record, so a
// resume picks it up), and a completed task's done record holds every
// session's result. Each task runs with panic containment: a
// panicking session fails its task in the ledger (its pool slots are
// released by the unwinding evaluation defers), and the remaining
// tasks run to completion. On return the pool is asserted idle — a
// non-zero slot count is a scheduler bug and surfaces as an error
// rather than a silent leak.
func (s *Scheduler) RunCampaign(tasks []Task, opts CampaignOptions) (*CampaignResult, error) {
	c := &campaign{
		tasks:   tasks,
		opts:    opts,
		out:     make([]TaskOutcome, len(tasks)),
		settled: make([]bool, len(tasks)),
		granted: make([]int, len(tasks)),
		replay:  make(map[[2]int][]int),
	}
	res := &CampaignResult{}
	if opts.LedgerPath != "" {
		led, err := journal.OpenLedger(opts.LedgerPath, ledgerMeta(tasks, opts), opts.Sync)
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

	s.runTasks(len(tasks), func(i int) { c.runTask(i, s.pool) })

	if leaked := s.pool.InUse(); leaked != 0 {
		return nil, fmt.Errorf("schedule: %d evaluation slot(s) still held at campaign teardown (scheduler bug)", leaked)
	}
	res.Tasks = c.out
	res.Grants = append([]journal.Grant(nil), c.grants...)
	res.Unused = c.bank
	return res, nil
}

// resultsFormat versions the done-record payload: a JSON array with
// one savedResult per session (version 1 held a single result).
const resultsFormat = 2

// ledgerMeta is the campaign's ledger manifest. Besides the caller's
// seed and fingerprint it carries the runner's own result-affecting
// policy: resuming under a different reallocation policy, grant chunk
// or done-record format would stitch a campaign that matches neither
// uninterrupted run, so such a resume is refused.
func ledgerMeta(tasks []Task, opts CampaignOptions) journal.LedgerMeta {
	meta := journal.LedgerMeta{
		Seed: opts.Seed,
		Config: fmt.Sprintf("%s | reallocate=%t grant-chunk=%d results=v%d",
			opts.Config, opts.Reallocate, opts.GrantChunk, resultsFormat),
	}
	for _, t := range tasks {
		var paths []string
		for _, s := range t.Sessions {
			if s.JournalPath != "" {
				paths = append(paths, s.JournalPath)
			}
		}
		meta.Tasks = append(meta.Tasks, t.Name)
		meta.Journals = append(meta.Journals, strings.Join(paths, string(os.PathListSeparator)))
	}
	return meta
}

// restore rebuilds the campaign's resume state from the recovered
// ledger: settled outcomes for done/failed tasks, per-session grant
// replay queues, and the budget bank (deposits minus draws).
func (c *campaign) restore() error {
	for _, g := range c.led.Grants() {
		key := [2]int{g.Task, g.Session}
		c.replay[key] = append(c.replay[key], g.Evals)
		if g.Evals > 0 {
			c.granted[g.Task] += g.Evals
			c.grants = append(c.grants, g)
			c.bank -= g.Evals
		}
		c.grantSeq = max(c.grantSeq, g.Seq+1)
	}
	for i, t := range c.tasks {
		if d, ok := c.led.TaskDone(i); ok {
			rs, err := decodeResults(t.Space, d.Result)
			if err == nil && len(rs) != len(t.Sessions) {
				err = fmt.Errorf("%d results for %d sessions", len(rs), len(t.Sessions))
			}
			if err != nil {
				return fmt.Errorf("schedule: task %d (%s): recorded results unreadable: %w", i, t.Name, err)
			}
			c.out[i] = TaskOutcome{Results: rs, Reused: true}
			c.settled[i] = true
			c.bank += d.Surplus
		} else if f, ok := c.led.TaskFailed(i); ok {
			c.out[i] = TaskOutcome{Failed: f.Reason, Reused: true}
			c.settled[i] = true
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

// execute runs one task's sessions in order with panic containment.
// The recover is the campaign's crash boundary: a panicking tuner or
// objective unwinds through the pool wrapper's deferred releases (so
// no slot leaks), lands here, is recorded as failed in the ledger with
// whatever budget its task left unspent surrendered to the pool, and
// the campaign carries on.
func (c *campaign) execute(i int, pool *Pool) (out TaskOutcome) {
	t := c.tasks[i]
	var jn *journal.Journal
	var ses *tuners.Session // the running session; nil between sessions
	trials := 0             // trials of the finished sessions
	defer func() {
		if p := recover(); p != nil {
			if ses != nil {
				trials += ses.Trials()
			}
			reason := fmt.Sprintf("panic: %v", p)
			c.fail(i, reason, trials)
			out = TaskOutcome{Failed: reason}
		}
		if jn != nil {
			jn.Close()
		}
	}()

	tn := t.New()
	for k, sp := range t.Sessions {
		req := sp.Request
		if req.Ctx != nil && req.Ctx.Err() != nil {
			return out
		}
		if sp.JournalPath != "" {
			var err error
			if jn, err = journal.Open(sp.JournalPath, sp.Meta, c.opts.Sync); err != nil {
				// An unopenable session journal is an environment problem,
				// not a session crash: report it in the outcome but write no
				// failed record, so a corrected environment can still resume
				// the task.
				return TaskOutcome{Failed: fmt.Sprintf("journal: %v", err)}
			}
			req.Journal = jn
		}
		if c.opts.Reallocate {
			req.Grants = &taskGrants{c: c, task: i, session: k, budget: req.Budget, replay: c.replay[[2]int{i, k}]}
		}
		ses = tuners.NewSession(pool.Wrap(sp.Objective()), t.Space, req)
		res := tn.Run(ses)
		ses = nil
		if jn != nil {
			jn.Close()
			jn = nil
		}
		trials += len(res.Trace)
		out.Results = append(out.Results, res)
		if res.Cancelled {
			return out
		}
	}
	c.complete(i, out.Results, trials)
	return out
}

// surplus is what task i leaves unspent of its sessions' base budgets
// plus its grants after the given trials. Callers hold c.mu.
func (c *campaign) surplus(i, trials int) int {
	n := c.granted[i] - trials
	for _, s := range c.tasks[i].Sessions {
		n += s.Request.Budget
	}
	return max(n, 0)
}

// complete settles a finished task: its surplus is recorded and
// deposited in the bank. A cancelled task is deliberately not settled
// — no done record, no deposit — so its journals stay resumable.
func (c *campaign) complete(i int, results []tuners.Result, trials int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	surplus := c.surplus(i, trials)
	if c.led != nil {
		payload, err := encodeResults(results)
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
	surplus := c.surplus(i, trials)
	if c.led != nil {
		_ = c.led.AppendTaskFailed(journal.TaskFailed{Task: i, Reason: reason, Trials: trials, Surplus: surplus})
	}
	c.bank += surplus
}

// taskGrants adapts the campaign's budget pool to one session's
// tuners.GrantSource.
type taskGrants struct {
	c             *campaign
	task, session int
	budget        int   // the session's base budget, the default grant chunk
	replay        []int // the session's recorded decisions not yet re-applied
}

// Grant implements tuners.GrantSource. Recorded decisions replay first
// — a resumed session re-applies the grants and declines its original
// run received, in order, at whatever points it runs dry (the same
// points the original hit, since the decision path is deterministic).
// Only once its replay queue is empty are new decisions made: a grant
// drawn from the bank, or a decline when the bank is empty, journaled
// write-ahead before being applied.
func (g *taskGrants) Grant(trials int) int {
	if len(g.replay) > 0 {
		n := g.replay[0]
		g.replay = g.replay[1:]
		return n
	}
	c := g.c
	c.mu.Lock()
	defer c.mu.Unlock()
	n := max(c.bank, 0)
	chunk := c.opts.GrantChunk
	if chunk <= 0 {
		chunk = g.budget
	}
	if chunk > 0 {
		n = min(n, chunk)
	}
	gr := journal.Grant{Seq: c.grantSeq, Task: g.task, Session: g.session, Evals: n, Trials: trials}
	if c.led != nil {
		if err := c.led.AppendGrant(gr); err != nil {
			// A grant that cannot be journaled must not be applied: an
			// unrecorded grant would make the resumed run diverge from
			// this one. Declining costs only optimization opportunity.
			return 0
		}
	}
	c.grantSeq++
	if n > 0 {
		c.bank -= n
		c.granted[g.task] += n
		c.grants = append(c.grants, gr)
	}
	return n
}

// savedResult is the ledger's JSON image of a tuners.Result: the
// result itself, with its best configuration as a name → value map.
// JSON round-trips float64 bit-exactly (Go marshals the shortest
// representation that parses back to the same value), so a decoded
// result compares equal to the live one field for field. BestSeconds
// is gated on Found because its not-found value is +Inf, which JSON
// cannot encode.
type savedResult struct {
	tuners.Result
	// Best and BestSeconds shadow the embedded fields of the same name.
	Best        map[string]float64 `json:"Best,omitempty"`
	BestSeconds float64            `json:"BestSeconds,omitempty"`
}

// encodeResults is the done-record payload: one savedResult per
// session, in session order.
func encodeResults(results []tuners.Result) (json.RawMessage, error) {
	saved := make([]savedResult, len(results))
	for k, res := range results {
		saved[k].Result = res
		if res.Found {
			saved[k].Best = res.Best.ToMap()
			saved[k].BestSeconds = res.BestSeconds
		}
	}
	return json.Marshal(saved)
}

func decodeResults(space *conf.Space, data json.RawMessage) ([]tuners.Result, error) {
	var saved []savedResult
	if err := json.Unmarshal(data, &saved); err != nil {
		return nil, err
	}
	out := make([]tuners.Result, len(saved))
	for k, sr := range saved {
		out[k] = sr.Result
		out[k].BestSeconds = math.Inf(1)
		if sr.Found {
			c, err := space.FromRaw(sr.Best)
			if err != nil {
				return nil, fmt.Errorf("session %d best config: %w", k, err)
			}
			out[k].Best = c
			out[k].BestSeconds = sr.BestSeconds
		}
	}
	return out, nil
}
