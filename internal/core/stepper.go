// The ask/tell form of ROBOTune: Run's probe → selection → init → BO
// pipeline decomposed into an explicit phase machine that emits the
// trials it wants evaluated and consumes their outcomes. The
// tuners.Session kernel and its drivers (tuners.Drive in process,
// robotuned over the wire) own evaluation, retries, deadlines,
// cancellation, journaling and replay; external systems can drive the
// same stepper against a real cluster with no Objective at all. The phase boundaries, rng consumption and journal phase
// stamps are identical to the old blocking loop, so every existing
// parity and resume suite holds bit-for-bit.
package core

import (
	"math"
	"math/rand/v2"

	"repro/internal/backend"
	"repro/internal/bo"
	"repro/internal/conf"
	"repro/internal/mapping"
	"repro/internal/memo"
	"repro/internal/sample"
	"repro/internal/tuners"
)

type phase int

const (
	phProbe phase = iota
	phSelection
	phInit
	phBO
	phDone
)

// Stepper is ROBOTune as a resumable ask/tell state machine. Build
// one with ROBOTune.Stepper (external evaluation) or let Run drive
// one under a session. A Stepper is single-use and not safe for
// concurrent calls.
type Stepper struct {
	r    *ROBOTune
	opts Options

	s        *tuners.Session  // nil in external-evaluation mode
	obj      tuners.Objective // nil in external-evaluation mode
	space    *conf.Space
	budget   int
	seed     uint64
	workload string
	dataset  string

	proto    tuners.Protocol
	phase    phase
	finished bool

	selected []string
	selEvals int
	selCost  float64

	// Phase-entry objective counters for the selection accounting.
	evalsBefore int
	costBefore  float64

	// Probe phase (workload mapping).
	probeCfgs []conf.Config
	probeSecs []float64
	probeSeen int // probes run one at a time, so also the next one's index

	// Selection phase.
	selDesign   [][]float64
	selCfgs     []conf.Config
	selRecs     []backend.EvalRecord
	selObserved []bool
	sel         tuners.Wave

	// Tuning state (init + BO), built by sealSelection.
	ss              *conf.Subspace
	tr              *runTracker
	engine          *bo.Engine
	remaining       int
	rng             *rand.Rand
	tuneEvalsBefore int
	tuneCostBefore  float64
	surrFallbacks   int

	initCfgs []conf.Config
	initNext int

	stale    int
	lastBest float64
}

// Stepper builds the external-evaluation form of ROBOTune: the caller
// evaluates each Proposal (honoring its Cap as a stopping threshold
// when possible) and feeds the outcome back via Observe, then reads
// Result. workload and dataset key the memoization store and may be
// empty. Without an Objective the Result's Evals/SearchCost and
// selection-cost fields are zero — the caller owns that accounting —
// and there is no journaling or batching.
func (r *ROBOTune) Stepper(space *conf.Space, budget int, seed uint64, workload, dataset string) *Stepper {
	return r.newStepper(nil, space, budget, seed, workload, dataset)
}

// prepare builds the session-backed stepper Run drives, keyed by the
// objective's workload identity. A resumed session re-derives every
// decision, parameter selection included, by replaying its journal
// through this stepper.
func (r *ROBOTune) prepare(s *tuners.Session) *Stepper {
	var workload, dataset string
	if id, ok := s.Objective().(identifiable); ok {
		workload, dataset = id.WorkloadName(), id.DatasetName()
	}
	return r.newStepper(s, s.Space(), s.Budget(), s.Seed(), workload, dataset)
}

// newStepper is the one constructor behind Stepper and prepare (s is
// nil in external-evaluation mode): it performs the selection-cache
// check (Figure 1) and opens the first phase before any trial is
// proposed.
func (r *ROBOTune) newStepper(s *tuners.Session, space *conf.Space, budget int, seed uint64, workload, dataset string) *Stepper {
	st := &Stepper{
		r:        r,
		opts:     r.opts,
		s:        s,
		space:    space,
		budget:   budget,
		seed:     seed,
		workload: workload,
		dataset:  dataset,
	}
	if s != nil {
		st.obj = s.Objective()
	}
	if workload != "" {
		if cached, hit := r.store.Selection(workload); hit {
			st.selected = cached
		}
	}
	st.start()
	return st
}

// start picks the opening phase: straight to tuning on a cached
// selection, the mapping probe when a Mapper can try to inherit one,
// or the full LHS selection sweep.
func (st *Stepper) start() {
	switch {
	case st.selected != nil:
		st.sealSelection()
	case st.opts.Mapper != nil && st.workload != "" && !st.sessionDone():
		st.enterProbe()
	default:
		st.enterSelection()
	}
}

func (st *Stepper) sessionDone() bool {
	return st.s != nil && st.s.Done()
}

func (st *Stepper) setPhase(phase string) {
	if st.s != nil {
		st.s.SetPhase(phase)
	}
}

// Done implements tuners.Stepper.
func (st *Stepper) Done() bool { return st.phase == phDone }

// Inflight implements tuners.Stepper.
func (st *Stepper) Inflight() *tuners.Protocol { return &st.proto }

// EvalParallel implements tuners.Batcher: the selection sweep runs
// under Options.Parallel, everything else sequentially.
func (st *Stepper) EvalParallel() int {
	if st.phase == phSelection {
		return st.opts.Parallel
	}
	return 1
}

// --- Probe phase (workload mapping, extension) -----------------------

func (st *Stepper) enterProbe() {
	st.phase = phProbe
	st.setPhase("probe")
	if st.obj != nil {
		st.evalsBefore, st.costBefore = st.obj.Evals(), st.obj.SearchCost()
	}
	st.probeCfgs = st.opts.Mapper.ProbeConfigs()
	st.probeSecs = make([]float64, len(st.probeCfgs))
	if len(st.probeCfgs) == 0 {
		st.endProbe()
	}
}

func (st *Stepper) endProbe() {
	// The signature arithmetic of Mapper.Characterize, applied to the
	// observed probe times in probe order. A probe cut short by
	// cancellation characterizes with zero entries for the missing
	// probes; the forced selection that follows falls back anyway.
	sig := mapping.Signature{LogTimes: make([]float64, len(st.probeCfgs))}
	for i, sec := range st.probeSecs {
		if sec <= 0 {
			sec = 1e-3
		}
		sig.LogTimes[i] = math.Log(sec)
	}
	if match, ok := st.opts.Mapper.BestMatch(sig); ok && match.Similarity >= st.opts.MapThreshold {
		if sel, hit := st.r.store.Selection(match.Workload); hit {
			st.selected = sel
			st.r.store.PutSelection(st.workload, st.selected)
		}
	}
	_ = st.opts.Mapper.Register(st.workload, sig)
	if st.obj != nil {
		st.selEvals += st.obj.Evals() - st.evalsBefore
		st.selCost += st.obj.SearchCost() - st.costBefore
	}
	if st.selected != nil {
		st.sealSelection()
		return
	}
	st.enterSelection()
}

// --- Selection phase (Random-Forest parameter selection) -------------

func (st *Stepper) enterSelection() {
	st.phase = phSelection
	if st.obj != nil {
		st.evalsBefore, st.costBefore = st.obj.Evals(), st.obj.SearchCost()
	}
	st.setPhase("selection")
	samples := st.opts.GenericSamples
	rng := sample.NewRNG(st.seed ^ 0x5e1ec7)
	st.selDesign = sample.LHS(samples, st.space.Dim(), rng)
	st.selCfgs = make([]conf.Config, len(st.selDesign))
	for i, u := range st.selDesign {
		st.selCfgs[i] = st.space.Decode(u)
	}
	st.selRecs = make([]backend.EvalRecord, len(st.selCfgs))
	st.selObserved = make([]bool, len(st.selCfgs))
	st.sel.Start(len(st.selCfgs))
	if len(st.selCfgs) == 0 {
		st.endSelection()
	}
}

func (st *Stepper) endSelection() {
	x := make([][]float64, 0, len(st.selCfgs))
	y := make([]float64, 0, len(st.selCfgs))
	bestSec := math.Inf(1)
	var bestCfg conf.Config
	for i, rec := range st.selRecs {
		if !st.selObserved[i] || rec.Skipped {
			continue
		}
		x = append(x, append([]float64(nil), st.selDesign[i]...))
		y = append(y, rec.Seconds)
		if rec.Completed && rec.Seconds < bestSec {
			bestSec, bestCfg = rec.Seconds, st.selCfgs[i]
		}
	}
	sel, err := st.r.selectFromData(st.space, x, y, st.seed)
	if err == nil {
		sel.BestSample = bestCfg
		sel.BestSeconds = bestSec
		st.selected = sel.Params
		st.r.LastSelection = &sel
	}
	if st.obj != nil {
		st.selEvals += st.obj.Evals() - st.evalsBefore
		st.selCost += st.obj.SearchCost() - st.costBefore
	}
	if st.workload != "" && st.selected != nil {
		st.r.store.PutSelection(st.workload, st.selected)
	}
	// The best configuration observed during selection is a valid
	// tuning observation: memoize it so this and future sessions start
	// from a viable anchor.
	if st.workload != "" && sel.BestSample.Valid() {
		st.r.store.AddConfigs(st.workload, []memo.SavedConfig{{
			Values:  sel.BestSample.ToMap(),
			Seconds: sel.BestSeconds,
			Dataset: st.dataset,
		}}, st.opts.MemoConfigs*4)
	}
	st.sealSelection()
}

// --- Tuning setup (subspace + memoized sampling, §3.2) ---------------

// sealSelection fixes the selection outcome (falling back to the
// executor-size trio when selection failed entirely), builds the
// subspace and BO engine, and queues the initial training set.
func (st *Stepper) sealSelection() {
	opts, space := st.opts, st.space
	if len(st.selected) == 0 {
		// Selection failed entirely (e.g. every sample failed): fall
		// back to the executor-size joint parameter, always relevant —
		// or, in a space without it, to every parameter.
		st.selected = []string{conf.ExecutorCores, conf.ExecutorMemory, conf.ExecutorInstances}
		if _, ok := space.Param(conf.ExecutorCores); !ok {
			st.selected = space.Names()
		}
	}
	// Unselected parameters are frozen to the best configuration seen
	// so far for this workload (from the memo buffer, which includes
	// the best selection sample); the framework default is only the
	// last resort. Freezing at a viable anchor matters: the Spark
	// default would OOM several workloads regardless of the tuned
	// subspace values.
	base := space.Default()
	if st.workload != "" {
		if anchors := st.r.store.BestConfigs(st.workload, 1); len(anchors) > 0 {
			if c, err := space.FromRaw(anchors[0].Values); err == nil {
				base = c
			}
		}
	}
	ss, err := space.Sub(st.selected, base)
	if err != nil {
		// Defensive: unknown names in a stale cache entry.
		ss, err = space.Sub([]string{conf.ExecutorCores, conf.ExecutorMemory}, base)
	}
	if err != nil {
		ss, _ = space.Sub(space.Names(), base)
	}
	st.ss = ss
	st.r.LastSubspace = ss

	if st.obj != nil {
		st.tuneEvalsBefore, st.tuneCostBefore = st.obj.Evals(), st.obj.SearchCost()
	}
	st.tr = &runTracker{bestSec: math.Inf(1)}
	st.engine = bo.New(ss.Dim(), withSeed(opts.BO, st.seed))
	st.r.LastEngine = st.engine
	st.remaining = st.budget

	var memoCfgs []memo.SavedConfig
	if st.workload != "" {
		// Pull a wider slate and keep a diverse subset: the top
		// configurations of one session are near-duplicates, and seeding
		// the GP with four copies of the same point over-anchors
		// exploitation on the previous dataset's optimum.
		memoCfgs = diverseConfigs(space, st.r.store.BestConfigs(st.workload, opts.MemoConfigs*4), opts.MemoConfigs)
	}
	lhsCount := opts.TuningSamples - len(memoCfgs)
	if lhsCount < 0 {
		lhsCount = 0
	}
	st.rng = sample.NewRNG(st.seed ^ 0x0b07e2e)
	design := sample.MaximinLHS(lhsCount, ss.Dim(), 0, st.rng)

	st.initCfgs = st.initCfgs[:0]
	for _, saved := range memoCfgs {
		c, err := space.FromRaw(saved.Values)
		if err != nil {
			continue
		}
		st.initCfgs = append(st.initCfgs, c)
	}
	for _, u := range design {
		st.initCfgs = append(st.initCfgs, ss.Decode(u))
	}
	st.phase = phInit
	st.setPhase("init")
	if st.remaining <= 0 || len(st.initCfgs) == 0 {
		st.sealInit()
	}
}

// sealInit opens the BO loop on the trained initial surrogate.
func (st *Stepper) sealInit() {
	st.phase = phBO
	st.setPhase("bo")
	st.stale = 0
	st.lastBest = st.tr.bestSec
	if st.remaining <= 0 {
		st.phase = phDone
	}
}

// guard is the median-multiple stopping cap (0 while nothing has
// completed — an all-failed prefix must not manufacture a cap).
func (st *Stepper) guard() float64 {
	if st.opts.GuardMultiple <= 0 {
		return 0
	}
	return st.tr.medianCompleted() * st.opts.GuardMultiple
}

// tellEngine feeds one observation to the surrogate. The GP models
// log execution time: the 480 s evaluation cap saturates much of the
// space, and the log transform keeps the surviving region
// discriminable. Failed runs are censored — their capped value is a
// floor, not a measurement — so the surrogate treats them as "at
// least this bad" instead of trusting junk observations.
func (st *Stepper) tellEngine(u []float64, rec backend.EvalRecord) {
	if rec.Completed {
		st.engine.Tell(u, math.Log(rec.Seconds))
	} else {
		st.engine.TellCensored(u, math.Log(rec.Seconds))
	}
	// The cost model (consulted only under Options.CostAware) learns
	// the uncapped spend of every trial, completed or not.
	if rec.Raw > 0 {
		st.engine.ObserveCost(u, rec.Raw)
	}
}

// --- Ask/tell surface ------------------------------------------------

// Propose implements tuners.Stepper. The selection sweep comes out as
// a multi-trial batch; the probe, init and BO phases propose one trial
// at a time because each proposal depends on the previous observation
// (the guard cap and the surrogate posterior).
func (st *Stepper) Propose(n int) []tuners.Proposal {
	st.proto.CheckPropose(st.Done())
	if st.phase == phSelection {
		return st.sel.Propose(&st.proto, n, func(i int) tuners.Proposal {
			return tuners.Proposal{Config: st.selCfgs[i]}
		})
	}
	if st.proto.Outstanding() > 0 {
		return nil // waiting for the outstanding trial
	}
	var p tuners.Proposal
	switch st.phase {
	case phProbe:
		p = tuners.Proposal{Config: st.probeCfgs[st.probeSeen]}
	case phInit:
		p = tuners.Proposal{Config: st.initCfgs[st.initNext], Cap: st.guard()}
	case phBO:
		u, fellBack := st.engine.SuggestOr(st.rng)
		if fellBack {
			st.surrFallbacks++
		}
		p = tuners.Proposal{Config: st.ss.Decode(u), Cap: st.guard()}
	}
	props := []tuners.Proposal{p}
	st.proto.Proposed(props)
	return props
}

// Observe implements tuners.Stepper.
func (st *Stepper) Observe(c conf.Config, rec backend.EvalRecord) {
	seq := st.proto.Observed(c)
	switch st.phase {
	case phProbe:
		if !rec.Skipped {
			st.probeSecs[st.probeSeen] = rec.Seconds
		}
		st.probeSeen++
		if st.probeSeen == len(st.probeCfgs) {
			st.endProbe()
		}
	case phSelection:
		idx, complete := st.sel.Observed(seq)
		st.selRecs[idx] = rec
		st.selObserved[idx] = true
		if complete {
			st.endSelection()
		}
	case phInit:
		st.remaining--
		st.tr.observe(c, rec)
		st.tellEngine(st.ss.Encode(c), rec)
		st.initNext++
		if st.initNext >= len(st.initCfgs) || st.remaining <= 0 {
			st.sealInit()
		}
	case phBO:
		st.remaining--
		st.tr.observe(c, rec)
		st.tellEngine(st.ss.Encode(c), rec)
		st.endRound()
	}
}

// endRound runs the per-round bookkeeping of the BO loop: the
// automated early stopping of §4 and budget exhaustion.
func (st *Stepper) endRound() {
	if st.opts.EarlyStopPatience > 0 {
		if st.tr.bestSec < st.lastBest*(1-st.opts.EarlyStopEpsilon) {
			st.stale = 0
			st.lastBest = st.tr.bestSec
		} else {
			st.stale++
			if st.stale >= st.opts.EarlyStopPatience {
				st.phase = phDone
				return
			}
		}
	}
	if st.remaining <= 0 {
		st.phase = phDone
	}
}

// Finish implements tuners.Finisher: it forces the remaining phase
// transitions of an interrupted pipeline (a cancelled sweep still
// falls back, builds the subspace and engine, and reports — exactly
// like the blocking loop, whose tail always ran) and memoizes the best
// configurations for future sessions.
func (st *Stepper) Finish(*tuners.Session) { st.finish() }

func (st *Stepper) finish() {
	if st.finished {
		return
	}
	st.finished = true
	if st.phase == phProbe {
		st.endProbe()
	}
	if st.phase == phSelection {
		st.endSelection()
	}
	if st.phase == phInit {
		st.sealInit()
	}
	if st.phase == phBO {
		st.phase = phDone
	}

	// Memoize the best configurations for future sessions. The buffer
	// retains a wider slate (4x) than the per-session pull so the
	// diverse subset has real choices.
	if st.workload != "" && st.tr.found {
		top := st.tr.topK(st.opts.MemoConfigs)
		saved := make([]memo.SavedConfig, 0, len(top))
		for _, e := range top {
			saved = append(saved, memo.SavedConfig{
				Values:  e.cfg.ToMap(),
				Seconds: e.sec,
				Dataset: st.dataset,
			})
		}
		st.r.store.AddConfigs(st.workload, saved, st.opts.MemoConfigs*4)
	}
}

// SessionResult implements tuners.ResultMaker: ROBOTune's Result
// carries the tuning-phase trace and the selection accounting, not
// the session's generic whole-run view.
func (st *Stepper) SessionResult(s *tuners.Session) tuners.Result {
	res := tuners.Result{
		Best:               st.tr.best,
		BestSeconds:        st.tr.bestSec,
		Found:              st.tr.found,
		Trace:              st.tr.trace,
		Completed:          st.tr.completed,
		SelectedParams:     append([]string(nil), st.selected...),
		SelectionEvals:     st.selEvals,
		SelectionCost:      st.selCost,
		SurrogateFallbacks: st.surrFallbacks,
	}
	if st.obj != nil {
		res.Evals = st.obj.Evals() - st.tuneEvalsBefore
		res.SearchCost = st.obj.SearchCost() - st.tuneCostBefore
	}
	if s != nil {
		res.Failures = s.Stats()
		res.Cancelled = s.Cancelled()
	}
	return res
}

// Result seals an externally driven stepper and returns its outcome.
// (Session-driven steppers get their Result from tuners.Drive.)
func (st *Stepper) Result() tuners.Result {
	st.finish()
	return st.SessionResult(st.s)
}
