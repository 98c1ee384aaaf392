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
// Each rung's proposals carry the rung's cap (Proposal.Cap), which the
// session hands to the objective in its EvalSpec, tightened by the
// request deadline. The caps start at shaMinCap and grow by shaEta;
// the final rung, the first whose cap would reach shaMaxCap, and the
// jitter trials after it run under the evaluator's own limit (Cap 0),
// so a backend whose limit is far above the Spark paper's 480 s is
// not cut short. An objective that ignores EvalSpec.Cap runs every
// trial under the full cap, and the method degrades to
// repeated-evaluation selection.
type SuccessiveHalving struct{}

// The successive-halving schedule: 1/shaEta of each cohort survives
// and the cap grows by shaEta (Hyperband's usual choice), from
// shaMinCap seconds until it would reach shaMaxCap (the paper's
// limit), where the final, uncapped rung takes over.
const (
	shaEta    = 3
	shaMinCap = 60.0
	shaMaxCap = 480.0
)

// Name implements Tuner.
func (SuccessiveHalving) Name() string { return "SuccessiveHalving" }

// Run implements Tuner by driving the stepper. The rung caps
// ride on the session's guard capability, so the request deadline
// tightens them further.
func (s SuccessiveHalving) Run(ses *Session) Result {
	return Drive(s.Stepper(ses.Space(), ses.Budget(), ses.Seed()), ses)
}

// rungEntry is one configuration on a successive-halving rung (SHA's
// or BOHB's) with its ranking key: the observed seconds, or a floor on
// them for a run that did not complete.
type rungEntry struct {
	c   conf.Config
	sec float64
}

// promote returns the fastest 1/eta of a fully observed rung, at least
// one entry; the sort is stable, so ties keep proposal order.
func promote(rung []rungEntry, eta int) []rungEntry {
	ranked := append([]rungEntry(nil), rung...)
	sort.SliceStable(ranked, func(a, b int) bool { return ranked[a].sec < ranked[b].sec })
	return ranked[:max(len(ranked)/eta, 1)]
}

// Stepper returns the ask/tell form of successive halving. Each rung
// is proposed as one wave (every proposal carrying the rung's cap);
// promotion runs once the whole rung has been observed. Leftover
// budget after the final rung is spent on jittered copies of the best
// survivor, proposed on demand.
func (SuccessiveHalving) Stepper(space *conf.Space, budget int, seed uint64) Stepper {
	rng := sample.NewRNG(seed)

	// Rounds: caps shaMinCap, shaMinCap*shaEta, ... below shaMaxCap,
	// then the final rung.
	rounds := 1
	for cap := shaMinCap; cap < shaMaxCap; cap *= shaEta {
		rounds++
	}
	// Cohort sizing: n + n/eta + n/eta² + ... <= budget.
	denom := 0.0
	f := 1.0
	for r := 0; r < rounds; r++ {
		denom += f
		f /= shaEta
	}
	cohort := int(float64(budget) / denom)
	if cohort < 1 {
		cohort = 1
	}

	st := &shaStepper{
		space:     space,
		rng:       rng,
		rounds:    rounds,
		remaining: budget,
		cap:       shaMinCap,
	}
	for _, u := range sample.LHS(cohort, space.Dim(), rng) {
		st.survivors = append(st.survivors, rungEntry{c: space.Decode(u)})
	}
	st.startRound()
	return st
}

type shaStepper struct {
	Protocol
	space     *conf.Space
	rng       *rand.Rand
	rounds    int
	r         int
	remaining int
	cap       float64
	survivors []rungEntry
	jitter    bool

	// Current rung state. roundCap is 0 on the final rung: the
	// evaluator's own limit.
	queue    []rungEntry // entries pending evaluation this rung
	roundCap float64
	wave     Wave
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
		st.roundCap = 0
	}
	k := len(st.survivors)
	if k > st.remaining {
		k = st.remaining
	}
	st.remaining -= k
	st.queue = append([]rungEntry(nil), st.survivors[:k]...)
	st.wave.Start(k)
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
			props[i] = Proposal{Config: st.space.Decode(u)}
		}
		st.remaining -= k
		st.Proposed(props)
		return props
	}
	return st.wave.Propose(&st.Protocol, n, func(i int) Proposal {
		return Proposal{Config: st.queue[i].c, Cap: st.roundCap}
	})
}

func (st *shaStepper) Observe(c conf.Config, rec backend.EvalRecord) {
	seq := st.Observed(c)
	if st.jitter {
		return // jitter evaluations only feed the session incumbent
	}
	idx, complete := st.wave.Observed(seq)
	// Runs killed by the tight cap carry their consumed time as the
	// ranking key (they are at least that slow); a failed final-rung
	// run, under the evaluator's own limit, at least the limit it
	// reports as Seconds.
	sec := rec.Seconds
	if !rec.Completed {
		floor := st.roundCap
		if floor == 0 {
			floor = rec.Seconds
		}
		sec = math.Max(rec.Raw, floor)
	}
	st.queue[idx].sec = sec
	if complete {
		st.endRound()
	}
}

// endRound promotes the fastest 1/shaEta of the rung and loosens the
// cap.
func (st *shaStepper) endRound() {
	st.survivors = promote(st.queue, shaEta)
	st.cap *= shaEta
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
