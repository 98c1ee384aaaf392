package tuners

import (
	"math"
	"math/rand/v2"
	"sort"

	"repro/internal/backend"
	"repro/internal/conf"
	"repro/internal/sample"
)

// SuccessiveHalving is an extension baseline beyond the paper's
// three: Hyperband-style successive halving over the *execution time
// cap* instead of training epochs. A large cohort of LHS
// configurations is evaluated under a tight time cap — runs that
// cannot finish are killed cheaply — and the fastest fraction is
// promoted to a looser cap, repeating until the survivors run under
// the full limit. It exploits the same early-kill machinery as
// ROBOTune's guard, but with a fixed schedule instead of a model.
//
// It requires an Objective that supports EvaluateWithCap (the
// simulator's Evaluator and FuncObjective both do); otherwise every
// evaluation runs under the full cap and the method degrades to
// repeated-evaluation selection.
type SuccessiveHalving struct {
	// Eta is the promotion factor: 1/Eta of each cohort survives and
	// the cap grows by Eta (default 3, Hyperband's usual choice).
	Eta int
	// MinCap is the tightest initial cap in seconds (default 60).
	MinCap float64
	// MaxCap is the final cap (default 480, the paper's limit).
	MaxCap float64
}

// Name implements Tuner.
func (SuccessiveHalving) Name() string { return "SuccessiveHalving" }

// Run implements Tuner by driving the stepper. The rung caps
// ride on the session's guard capability, so the request deadline
// tightens them further.
func (s SuccessiveHalving) Run(ses *Session) Result {
	return Drive(s.Stepper(ses.Space(), ses.Budget(), ses.Seed()), ses)
}

type shaEntry struct {
	c   conf.Config
	sec float64
}

// Stepper returns the ask/tell form of successive halving. Each rung
// is proposed as one wave (every proposal carrying the rung's cap);
// promotion runs once the whole rung has been observed. Leftover
// budget after the final rung is spent on jittered copies of the best
// survivor, proposed on demand.
func (s SuccessiveHalving) Stepper(space *conf.Space, budget int, seed uint64) Stepper {
	if s.Eta < 2 {
		s.Eta = 3
	}
	if s.MinCap <= 0 {
		s.MinCap = 60
	}
	if s.MaxCap <= s.MinCap {
		s.MaxCap = 480
	}
	rng := sample.NewRNG(seed)

	// Rounds: caps MinCap, MinCap*Eta, ... up to MaxCap.
	rounds := 1
	for cap := s.MinCap; cap < s.MaxCap; cap *= float64(s.Eta) {
		rounds++
	}
	// Cohort sizing: n + n/eta + n/eta² + ... <= budget.
	denom := 0.0
	f := 1.0
	for r := 0; r < rounds; r++ {
		denom += f
		f /= float64(s.Eta)
	}
	cohort := int(float64(budget) / denom)
	if cohort < 1 {
		cohort = 1
	}

	st := &shaStepper{
		cfg:       s,
		space:     space,
		rng:       rng,
		rounds:    rounds,
		remaining: budget,
		cap:       s.MinCap,
		slot:      make(map[int]int),
	}
	for _, u := range sample.LHS(cohort, space.Dim(), rng) {
		st.survivors = append(st.survivors, shaEntry{c: space.Decode(u)})
	}
	st.startRound()
	return st
}

type shaStepper struct {
	Protocol
	cfg       SuccessiveHalving
	space     *conf.Space
	rng       *rand.Rand
	rounds    int
	r         int
	remaining int
	cap       float64
	survivors []shaEntry
	jitter    bool

	// Current rung state.
	queue    []shaEntry // entries pending evaluation this rung
	roundCap float64
	next     int
	seen     int
	slot     map[int]int // proposal sequence → rung entry index
}

func (st *shaStepper) Done() bool { return st.jitter && st.remaining <= 0 }

// startRound reserves the rung's budget and queues its survivors, or
// switches to the jitter phase when the rung schedule is exhausted.
func (st *shaStepper) startRound() {
	if st.r >= st.rounds || st.remaining <= 0 || len(st.survivors) == 0 {
		st.jitter = true
		if len(st.survivors) == 0 {
			st.remaining = 0
		}
		return
	}
	st.roundCap = st.cap
	if st.r == st.rounds-1 {
		st.roundCap = st.cfg.MaxCap
	}
	k := len(st.survivors)
	if k > st.remaining {
		k = st.remaining
	}
	st.remaining -= k
	st.queue = append([]shaEntry(nil), st.survivors[:k]...)
	st.next = 0
	st.seen = 0
}

func (st *shaStepper) Propose(n int) []Proposal {
	st.CheckPropose(st.Done())
	if st.jitter {
		k := st.remaining
		if n > 0 && n < k {
			k = n
		}
		props := make([]Proposal, k)
		for i := 0; i < k; i++ {
			// Jittered copy of the best survivor under the full cap.
			u := st.space.Encode(st.survivors[0].c)
			for j := range u {
				u[j] = clampUnit(u[j] + 0.03*st.rng.NormFloat64())
			}
			props[i] = Proposal{Config: st.space.Decode(u), Cap: st.cfg.MaxCap}
		}
		st.remaining -= k
		st.Proposed(props)
		return props
	}
	if st.next >= len(st.queue) {
		return nil // waiting for the rung's outstanding observations
	}
	k := len(st.queue) - st.next
	if n > 0 && n < k {
		k = n
	}
	props := make([]Proposal, k)
	for i := 0; i < k; i++ {
		props[i] = Proposal{Config: st.queue[st.next+i].c, Cap: st.roundCap}
	}
	first := st.Proposed(props)
	for i := 0; i < k; i++ {
		st.slot[first+i] = st.next + i
	}
	st.next += k
	return props
}

func (st *shaStepper) Observe(c conf.Config, rec backend.EvalRecord) {
	seq := st.Observed(c)
	if st.jitter {
		return // jitter evaluations only feed the session incumbent
	}
	idx := st.slot[seq]
	delete(st.slot, seq)
	// Runs killed by the tight cap carry their consumed time as the
	// ranking key (they are at least that slow).
	sec := rec.Seconds
	if !rec.Completed {
		sec = math.Max(rec.Raw, st.roundCap)
	}
	st.queue[idx].sec = sec
	st.seen++
	if st.seen == len(st.queue) && st.next >= len(st.queue) {
		st.endRound()
	}
}

// endRound promotes the fastest 1/Eta of the rung and loosens the cap.
func (st *shaStepper) endRound() {
	evaluated := append([]shaEntry(nil), st.queue...)
	sort.SliceStable(evaluated, func(a, b int) bool { return evaluated[a].sec < evaluated[b].sec })
	keep := len(evaluated) / st.cfg.Eta
	if keep < 1 {
		keep = 1
	}
	st.survivors = evaluated[:keep]
	st.cap = math.Min(st.cap*float64(st.cfg.Eta), st.cfg.MaxCap)
	st.r++
	st.startRound()
}

func clampUnit(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v >= 1 {
		return math.Nextafter(1, 0)
	}
	return v
}
