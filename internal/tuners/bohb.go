package tuners

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"repro/internal/backend"
	"repro/internal/bo"
	"repro/internal/conf"
	"repro/internal/sample"
)

// BOHB is the multi-fidelity extension tuner: BOHB-style successive
// halving over a *fidelity ladder* (fractions of the real workload
// along a configurable axis — input volumes or stage-plan prefix)
// with the BO engine proposing bracket cohorts and a single surrogate
// accumulating evidence across all fidelities.
//
// Each bracket evaluates a cohort of Eta^(rungs-1) configurations at
// the ladder's cheapest fidelity, promotes the fastest 1/Eta to the
// next rung, and repeats until the survivors run the full workload.
// The first bracket's cohort is an LHS design; later brackets draw
// theirs from the surrogate via constant-liar batch suggestion, so
// brackets sharpen as evidence accumulates. Budget that cannot fund a
// whole bracket is spent on sequential full-fidelity BO suggestions
// (brackets are never truncated mid-rung — a half-evaluated rung
// promotes garbage).
//
// The surrogate sees full-fidelity completions as exact observations
// and proxy completions as *extrapolated* evidence: the observed
// log-runtime plus the log of the rung's scale ratio (i.e. runtime is
// assumed to scale linearly with input size). The assumption is crude
// but consistent — it preserves the ranking within a rung and keeps
// every observation on one comparable scale, which is all the
// acquisition needs; learning a per-rung correction from promotion
// pairs was tried and measurably hurt, because early in a session the
// estimate is built from a handful of biased survivors. Failures
// enter censored, exactly as in ROBOTune. When BO.CostAware is set,
// every observation also feeds the engine's cost model with its
// full-fidelity-equivalent spend, making the acquisition prefer cheap
// promising points.
type BOHB struct {
	// Eta is the promotion factor: 1/Eta of each rung survives
	// (default 3, Hyperband's usual choice).
	Eta int
	// Ladder lists the input-scale fidelities in ascending order; the
	// last entry must be 1 (the full workload). Default {1/9, 1/3, 1}.
	// An invalid ladder (see ValidFidelityLadder) falls back to the
	// default.
	Ladder []float64
	// BO configures the shared surrogate engine; bo.New defaults its
	// zero fields, and the session seed replaces its Seed.
	BO bo.Config
	// Axis selects which workload dimension the ladder scales: input
	// volumes (the default) or the stage-plan prefix. Batch jobs whose
	// runtime is data-volume-bound proxy well under AxisInput;
	// iterative workloads (many similar stages) often have a per-stage
	// cost floor that input scaling cannot shrink, and proxy far more
	// cheaply — and rank more faithfully — under AxisStage.
	Axis FidelityAxis
	// Workers is the parallelism hint for rung waves (default 1).
	Workers int
}

// bohbGuard is the median-multiple stopping cap, the same mechanism as
// ROBOTune's Options.GuardMultiple (and its default): each proposal
// carries a cap of bohbGuard × the median completed full-equivalent
// time, scaled to the rung's fidelity.
const bohbGuard = 3

// FidelityAxis selects which workload dimension a BOHB fidelity
// ladder scales down.
type FidelityAxis int

const (
	// AxisInput scales every stage's data volumes by the rung fraction.
	AxisInput FidelityAxis = iota
	// AxisStage truncates the plan to the first ceil(frac·stages)
	// stages.
	AxisStage
)

// DefaultLadder is the fidelity ladder BOHB uses when none is given:
// two proxy rungs a factor of Eta=3 apart, then the full workload.
func DefaultLadder() []float64 { return []float64{1.0 / 9, 1.0 / 3, 1} }

// MaxLadderRungs bounds the fidelity ladder length accepted by
// ValidFidelityLadder (a 16-rung ladder is already far past useful).
const MaxLadderRungs = 16

// ValidFidelityLadder checks a fidelity ladder: 1-16 finite entries,
// each in (0, 1], strictly ascending, ending at exactly 1. The cli
// and the wire server validate user ladders with it before handing
// them to BOHB.
func ValidFidelityLadder(l []float64) error {
	if len(l) == 0 {
		return fmt.Errorf("fidelity ladder is empty")
	}
	if len(l) > MaxLadderRungs {
		return fmt.Errorf("fidelity ladder has %d rungs, max %d", len(l), MaxLadderRungs)
	}
	for i, v := range l {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 || v > 1 {
			return fmt.Errorf("fidelity ladder rung %d = %v, want (0, 1]", i, v)
		}
		if i > 0 && v <= l[i-1] {
			return fmt.Errorf("fidelity ladder not strictly ascending at rung %d", i)
		}
	}
	if l[len(l)-1] != 1 {
		return fmt.Errorf("fidelity ladder must end at 1, ends at %v", l[len(l)-1])
	}
	return nil
}

// Name implements Tuner.
func (BOHB) Name() string { return "BOHB" }

// Run implements Tuner by driving the stepper.
func (b BOHB) Run(ses *Session) Result {
	return Drive(b.Stepper(ses.Space(), ses.Budget(), ses.Seed()), ses)
}

// Stepper returns the ask/tell form of BOHB. Each rung is proposed as
// one wave at its ladder fidelity; promotion runs once the whole rung
// has been observed; new brackets start while a full bracket still
// fits in the remaining budget, then the tail phase spends what is
// left on sequential full-fidelity BO suggestions.
func (b BOHB) Stepper(space *conf.Space, budget int, seed uint64) Stepper {
	if b.Eta < 2 {
		b.Eta = 3
	}
	if len(b.Ladder) == 0 || ValidFidelityLadder(b.Ladder) != nil {
		b.Ladder = DefaultLadder()
	}
	if b.Workers < 1 {
		b.Workers = 1
	}
	bocfg := b.BO
	bocfg.Seed = seed

	// A bracket costs n0 + n0/Eta + ... trials for n0 = Eta^(rungs-1).
	n0 := 1
	for r := 1; r < len(b.Ladder); r++ {
		n0 *= b.Eta
	}
	trials := 0
	for r, n := 0, n0; r < len(b.Ladder); r, n = r+1, n/b.Eta {
		if n < 1 {
			n = 1
		}
		trials += n
	}

	st := &bohbStepper{
		cfg:           b,
		space:         space,
		rng:           sample.NewRNG(seed ^ 0xb0bb),
		engine:        bo.New(space.Dim(), bocfg),
		remaining:     budget,
		cohortSize:    n0,
		bracketTrials: trials,
	}
	st.startBracket()
	return st
}

type bohbStepper struct {
	Protocol
	cfg           BOHB
	space         *conf.Space
	rng           *rand.Rand
	engine        *bo.Engine
	remaining     int
	cohortSize    int // n0 = Eta^(rungs-1)
	bracketTrials int // total trials one whole bracket costs
	bracket       int // brackets started so far
	tail          bool
	surrFallbacks int

	// Current rung state. rungCap is fixed when the rung starts, so
	// every trial of the rung carries the same cap however its driver
	// chunks the proposals.
	queue   []rungEntry
	rung    int
	rungCap float64
	wave    Wave

	// times holds completed full-equivalent execution times (proxy
	// measurements scaled up linearly), the population the guard cap's
	// median is drawn from.
	times []float64
}

func (st *bohbStepper) Done() bool { return st.tail && st.remaining <= 0 }

// EvalParallel implements Batcher: rung waves may be evaluated
// concurrently. The engine is fed on each Observe, in arrival order,
// but Drive's batch path observes a wave in index order whatever the
// worker count, so results are bit-identical for any worker count.
func (st *bohbStepper) EvalParallel() int { return st.cfg.Workers }

// startBracket opens the next bracket — or, when a whole bracket no
// longer fits, switches to the full-fidelity tail phase.
func (st *bohbStepper) startBracket() {
	if st.remaining < st.bracketTrials {
		st.tail = true
		return
	}
	st.queue = st.cohort(st.cohortSize)
	st.bracket++
	st.rung = 0
	st.startRung()
}

// cohort draws a bracket's initial configurations: LHS for the first
// bracket (and whenever the surrogate has nothing to say), batch
// suggestions from the engine afterwards, padded with random points
// if the constant-liar lookahead stops early.
func (st *bohbStepper) cohort(n int) []rungEntry {
	var us [][]float64
	if st.bracket > 0 && st.engine.N() >= 2 {
		us = st.suggestBatch(n)
	}
	if len(us) == 0 {
		us = sample.LHS(n, st.space.Dim(), st.rng)
	}
	us = append(us, sample.Uniform(n-len(us), st.space.Dim(), st.rng)...)
	entries := make([]rungEntry, n)
	for i := 0; i < n; i++ {
		entries[i] = rungEntry{c: st.space.Decode(us[i])}
	}
	return entries
}

// startRung reserves the rung's trials (affordability was checked at
// bracket start, so the reservation never truncates a rung) and fixes
// the rung's guard cap from the completions seen so far.
func (st *bohbStepper) startRung() {
	st.remaining -= len(st.queue)
	st.rungCap = st.guardCap(st.rung)
	st.wave.Start(len(st.queue))
}

// rungFidelity maps a ladder rung to the proposal fidelity along the
// configured axis; the top rung (scale 1) is the zero Fidelity, i.e.
// the full workload.
func (st *bohbStepper) rungFidelity(r int) backend.Fidelity {
	s := st.cfg.Ladder[r]
	if s >= 1 {
		return backend.Fidelity{}
	}
	if st.cfg.Axis == AxisStage {
		return backend.Fidelity{StageFrac: s}
	}
	return backend.Fidelity{InputScale: s}
}

// guardCap is the stopping cap for a trial at the given rung: bohbGuard
// × the median completed full-equivalent time, shrunk linearly to the
// rung's input scale (0 while nothing has completed — an all-failed
// prefix must not manufacture a cap). The cap deliberately stays on
// the linear assumption rather than the learned calibration: a cap
// exists to kill pathological stragglers, and tightening it with a
// still-noisy learned ratio kills good runs instead.
func (st *bohbStepper) guardCap(rung int) float64 {
	if len(st.times) == 0 {
		return 0
	}
	sorted := append([]float64(nil), st.times...)
	sort.Float64s(sorted)
	med := sorted[len(sorted)/2]
	if len(sorted)%2 == 0 {
		med = (med + sorted[len(sorted)/2-1]) / 2
	}
	return med * bohbGuard * st.cfg.Ladder[rung]
}

func (st *bohbStepper) Propose(n int) []Proposal {
	st.CheckPropose(st.Done())
	if st.tail {
		// Sequential full-fidelity suggestions: one at a time, so each
		// sees every previous observation (and the stepper stays
		// bit-identical for any Workers setting).
		if st.Outstanding() > 0 {
			return nil // waiting for the outstanding trial
		}
		u, fellBack := st.engine.SuggestOr(st.rng)
		if fellBack {
			st.surrFallbacks++
		}
		st.remaining--
		props := []Proposal{{Config: st.space.Decode(u), Cap: st.guardCap(len(st.cfg.Ladder) - 1)}}
		st.Proposed(props)
		return props
	}
	fid := st.rungFidelity(st.rung)
	return st.wave.Propose(&st.Protocol, n, func(i int) Proposal {
		return Proposal{Config: st.queue[i].c, Cap: st.rungCap, Fidelity: fid}
	})
}

func (st *bohbStepper) Observe(c conf.Config, rec backend.EvalRecord) {
	seq := st.Observed(c)
	if st.tail {
		if rec.Completed {
			st.times = append(st.times, rec.Seconds)
		}
		st.feedEngine(c, rec, 1)
		return
	}
	idx, complete := st.wave.Observed(seq)
	// Ranking key: observed seconds; failed runs carry their consumed
	// time (they are at least that slow); skipped (cancelled) entries
	// sort last so they can never be promoted over a measurement.
	sec := rec.Seconds
	switch {
	case rec.Skipped:
		sec = math.Inf(1)
	case !rec.Completed:
		sec = math.Max(rec.Raw, rec.Seconds)
	}
	st.queue[idx].sec = sec
	if rec.Completed {
		st.times = append(st.times, rec.Seconds/st.cfg.Ladder[st.rung])
	}
	if !rec.Skipped {
		st.feedEngine(c, rec, st.cfg.Ladder[st.rung])
	}
	if complete {
		st.endRung()
	}
}

// feedEngine adds one observation to the shared surrogate. Full
// completions (scale 1) are exact; proxy completions are extrapolated
// to full-workload scale linearly; failures are censored floors. The
// cost model always receives the full-fidelity-equivalent spend.
func (st *bohbStepper) feedEngine(c conf.Config, rec backend.EvalRecord, scale float64) {
	u := st.space.Encode(c)
	if rec.Seconds > 0 {
		y := math.Log(rec.Seconds / scale)
		if rec.Completed {
			_ = st.engine.Tell(u, y)
		} else {
			_ = st.engine.TellCensored(u, y)
		}
	}
	if rec.Raw > 0 {
		st.engine.ObserveCost(u, rec.Raw/scale)
	}
}

// endRung promotes the fastest 1/Eta of the rung, or closes the
// bracket when the ladder is exhausted.
func (st *bohbStepper) endRung() {
	st.rung++
	if st.rung >= len(st.cfg.Ladder) {
		st.startBracket()
		return
	}
	st.queue = promote(st.queue, st.cfg.Eta)
	st.startRung()
}

// suggestBatch asks the engine for a bracket cohort, nil on any
// failure (the caller falls back to LHS).
func (st *bohbStepper) suggestBatch(n int) (us [][]float64) {
	defer func() {
		if recover() != nil {
			us = nil
			st.surrFallbacks++
		}
	}()
	out, err := st.engine.BatchSuggest(n)
	if err != nil {
		st.surrFallbacks++
		return nil
	}
	return out
}

// SessionResult implements ResultMaker: BOHB reports its surrogate
// fallbacks like ROBOTune does.
func (st *bohbStepper) SessionResult(s *Session) Result {
	res := s.Result()
	res.SurrogateFallbacks = st.surrFallbacks
	return res
}

// SurrogateStats returns the engine's refit-cadence accounting, the
// same view core.Stepper gives; robotuned's /metrics sums it over
// live sessions. The engine is built with the stepper, so ok is
// always true.
func (st *bohbStepper) SurrogateStats() (stats bo.RefitStats, ok bool) {
	return st.engine.RefitStats(), true
}
