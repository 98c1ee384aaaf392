// Package schedule runs many tuning sessions as campaigns, and gates
// shared compute by priority.
//
// RunCampaign is the one runner of many sessions. A campaign is a
// list of tasks, at most CampaignOptions.Concurrency of them in
// flight; a task is one tuner plus the sessions it tunes in order — a
// single session, a grid cell's D1 → D2 → D3, or a whole
// recurring-workload queue over one ROBOTune whose selection cache and
// memo buffer carry from session to session. Every session owns a
// private objective, so a campaign's results are bit-identical for
// any concurrency, including 1; the tests assert it. A CRC-framed
// campaign ledger (journal.Ledger — same framing as the per-session
// journals) records which tasks finished or failed and where their
// session journals live. A campaign killed at any point — including
// SIGKILL — resumes mid-grid: completed tasks are skipped via their
// done records (their recorded results are returned without
// constructing a tuner or touching an objective), in-flight tasks
// re-run their sessions through their session journals (a finished
// session replays with zero live evaluations, rebuilding whatever its
// tuner carries into the next one), and the stitched result is
// bit-identical to an uninterrupted run.
//
// Pool is a counting semaphore with priority classes; robotuned's
// -propose-slots gate charges each session's propose computation
// against one. Latency-sensitive sessions (an analyst waiting on an
// interactive ask/tell session) overtake queued bulk work, and within
// a class waiters are served strictly FIFO. A queue jump is counted
// as a preemption and the pool tracks per-class wait time, so a
// deployment can see exactly what the priority split buys.
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
	// Request is the session request; Journal is owned by the campaign
	// and must be left nil. A Ctx already cancelled when the session is
	// due ends the task without starting it.
	Request tuners.Request
	// JournalPath, when set, makes the session durable; Meta is the
	// session identity its journal is validated against.
	JournalPath string
	Meta        journal.Meta
}

// CampaignOptions configures a campaign run.
type CampaignOptions struct {
	// LedgerPath is the campaign ledger file; "" runs the campaign
	// without durability.
	LedgerPath string
	// Sync is the fsync policy for the ledger and all session journals.
	Sync journal.SyncPolicy
	// Seed and Config fingerprint the campaign in the ledger manifest;
	// resume validates both, together with the done-record format.
	Seed   uint64
	Config string
	// Concurrency is how many tasks run at once (<= 1 = one at a
	// time). It changes wall-clock only, never results.
	Concurrency int
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
	// Resumed is true when the ledger carried records from a previous
	// run.
	Resumed bool
	// Recovery reports what ledger recovery found and truncated.
	Recovery journal.RecoveryInfo
	// Err is the first failure of the campaign's durable files: a
	// ledger record that could not be appended, a session journal whose
	// appends failed, or a file that did not close cleanly. Such a
	// failure degrades durability, not results — the campaign runs to
	// the end and Tasks stand — but a later resume may re-run work this
	// run could not record.
	Err error
}

// campaign is the run state shared by all task goroutines. Each task
// goroutine writes only its own outcome; out[i].Reused marks the
// outcomes restore settled from the ledger before any task ran.
type campaign struct {
	tasks []Task
	opts  CampaignOptions
	led   *journal.Ledger
	out   []TaskOutcome

	mu  sync.Mutex
	err error // first durable-file failure
}

// RunCampaign executes tasks as a campaign, up to opts.Concurrency
// at once, durably when opts.LedgerPath is set. Each task builds its
// tuner once and tunes its sessions in order; the first cancelled
// session ends the task unsettled (no done record, so a resume picks
// it up), and a completed task's done record holds every session's
// result. Each task runs with panic containment: a panicking session
// fails its task in the ledger, and the remaining tasks run to
// completion. A failing ledger or session journal does not stop the
// campaign; it is reported in CampaignResult.Err.
func RunCampaign(tasks []Task, opts CampaignOptions) (*CampaignResult, error) {
	c := &campaign{tasks: tasks, opts: opts, out: make([]TaskOutcome, len(tasks))}
	res := &CampaignResult{}
	if opts.LedgerPath != "" {
		led, err := journal.OpenLedger(opts.LedgerPath, ledgerMeta(tasks, opts), opts.Sync)
		if err != nil {
			return nil, err
		}
		c.led = led
		res.Resumed = led.Resumed()
		res.Recovery = led.Recovery()
		if err := c.restore(); err != nil {
			led.Close()
			return nil, err
		}
	}

	runTasks(len(tasks), opts.Concurrency, func(i int) {
		if !c.out[i].Reused {
			c.out[i] = c.execute(i)
		}
	})

	if c.led != nil {
		c.note(c.led.Err())
		c.note(c.led.Close())
	}
	res.Tasks = c.out
	res.Err = c.err
	return res, nil
}

// runTasks invokes task(i) for i in [0, n) on concurrent goroutines,
// at most limit at once (<= 1 = one at a time), and returns when all
// have finished.
func runTasks(n, limit int, task func(i int)) {
	gate := make(chan struct{}, max(limit, 1))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		gate <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-gate }()
			task(i)
		}(i)
	}
	wg.Wait()
}

// note records err if it is the campaign's first durable-file failure.
func (c *campaign) note(err error) {
	if err == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
	}
}

// resultsFormat versions the done-record payload: a JSON array with
// one savedResult per session (version 1 held a single result).
const resultsFormat = 2

// ledgerMeta is the campaign's ledger manifest. Besides the caller's
// seed and fingerprint it carries the runner's done-record format: a
// resume that would misread the recorded results is refused.
func ledgerMeta(tasks []Task, opts CampaignOptions) journal.LedgerMeta {
	meta := journal.LedgerMeta{
		Seed:   opts.Seed,
		Config: fmt.Sprintf("%s | results=v%d", opts.Config, resultsFormat),
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

// restore settles the outcomes of the tasks the recovered ledger
// records as done or failed.
func (c *campaign) restore() error {
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
		} else if f, ok := c.led.TaskFailed(i); ok {
			c.out[i] = TaskOutcome{Failed: f.Reason, Reused: true}
		}
	}
	return nil
}

// execute runs one task's sessions in order with panic containment.
// The recover is the campaign's crash boundary: a panicking tuner or
// objective unwinds to here, is recorded as failed in the ledger, and
// the campaign carries on.
func (c *campaign) execute(i int) (out TaskOutcome) {
	t := c.tasks[i]
	var jn *journal.Journal
	defer func() {
		if p := recover(); p != nil {
			reason := fmt.Sprintf("panic: %v", p)
			if c.led != nil {
				c.note(c.led.AppendTaskFailed(journal.TaskFailed{Task: i, Reason: reason}))
			}
			out = TaskOutcome{Failed: reason}
		}
		c.closeJournal(jn)
	}()

	tn := t.New()
	for _, sp := range t.Sessions {
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
		res := tn.Run(tuners.NewSession(sp.Objective(), t.Space, req))
		c.closeJournal(jn)
		jn = nil
		out.Results = append(out.Results, res)
		if res.Cancelled {
			return out
		}
	}
	c.complete(i, out.Results)
	return out
}

// closeJournal closes a session journal, noting its first append
// failure and its close error.
func (c *campaign) closeJournal(jn *journal.Journal) {
	if jn == nil {
		return
	}
	c.note(jn.Err())
	c.note(jn.Close())
}

// complete records a finished task's done record. A cancelled task is
// deliberately not settled — no done record — so its journals stay
// resumable, and so is a task whose results cannot be encoded: a done
// record that resume could not read back would refuse the whole
// ledger, while an unsettled task resumes through its journals.
func (c *campaign) complete(i int, results []tuners.Result) {
	if c.led == nil {
		return
	}
	payload, err := encodeResults(results)
	if err == nil {
		err = c.led.AppendTaskDone(journal.TaskDone{Task: i, Result: payload})
	}
	c.note(err)
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
