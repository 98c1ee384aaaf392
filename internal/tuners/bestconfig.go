package tuners

import (
	"math"
	"math/rand/v2"

	"repro/internal/backend"
	"repro/internal/conf"
	"repro/internal/sample"
)

// BestConfig reimplements the search strategy of "BestConfig: Tapping
// the Performance Potential of Systems via Automatic Configuration
// Tuning" (Zhu et al., SoCC'17): rounds of Divide-and-Diverge
// Sampling (DDS) followed by Recursive Bound-and-Search (RBS) around
// the incumbent.
//
// DDS divides each parameter range into k intervals and draws samples
// so that every interval of every parameter is visited once per round
// — a Latin-Hypercube-style stratification. RBS then bounds a
// sub-space around the best sample (the span between its neighboring
// sample values on each axis) and recurses inside it. When a round
// fails to improve, the search diverges back to the full space.
//
// The reference implementation suggests a sampling-set size of 100;
// with the paper's budget of 100 evaluations that leaves a single DDS
// round and no RBS recursion, which is why §5.2 finds BestConfig
// performing close to Random Search. RoundSize is configurable so
// larger budgets exercise the recursive phase.
type BestConfig struct {
	// RoundSize is the DDS sampling-set size per round (default 100,
	// the reference default).
	RoundSize int
}

// Name implements Tuner.
func (BestConfig) Name() string { return "BestConfig" }

// Run implements Tuner by driving the stepper.
func (b BestConfig) Run(s *Session) Result {
	return Drive(b.Stepper(s.Space(), s.Budget(), s.Seed()), s)
}

// Stepper returns the ask/tell form of BestConfig. Each DDS round is
// proposed as a batch; the RBS bounds update runs once the whole
// round has been observed, so a new round is never proposed while an
// earlier one is outstanding.
func (b BestConfig) Stepper(space *conf.Space, budget int, seed uint64) Stepper {
	roundSize := b.RoundSize
	if roundSize <= 0 {
		roundSize = 100
	}
	d := space.Dim()
	st := &bestConfigStepper{
		space:     space,
		rng:       sample.NewRNG(seed),
		roundSize: roundSize,
		d:         d,
		remaining: budget,
		lo:        make([]float64, d),
		hi:        make([]float64, d),
		prevBest:  math.Inf(1),
		slot:      make(map[int]int),
	}
	st.resetBounds()
	return st
}

type bestConfigStepper struct {
	Protocol
	space     *conf.Space
	rng       *rand.Rand
	roundSize int
	d         int
	remaining int
	lo, hi    []float64
	prevBest  float64

	// Current round state.
	points       [][]float64 // mapped unit points, index-aligned with the design
	next         int         // next point index to propose
	seen         int         // observations received this round
	roundBest    []float64
	roundBestSec float64
	slot         map[int]int // proposal sequence → round point index
}

func (st *bestConfigStepper) resetBounds() {
	for j := 0; j < st.d; j++ {
		st.lo[j], st.hi[j] = 0, 1
	}
}

func (st *bestConfigStepper) Done() bool {
	return st.remaining <= 0 && st.next >= len(st.points)
}

// startRound draws the next DDS design inside the current bounds and
// reserves its budget, mirroring the legacy loop which decremented
// the budget at round start.
func (st *bestConfigStepper) startRound() {
	n := st.roundSize
	if n > st.remaining {
		n = st.remaining
	}
	st.remaining -= n
	design := sample.LHS(n, st.d, st.rng)
	st.points = make([][]float64, n)
	for i, u := range design {
		p := make([]float64, st.d)
		for j := 0; j < st.d; j++ {
			p[j] = st.lo[j] + u[j]*(st.hi[j]-st.lo[j])
		}
		st.points[i] = p
	}
	st.next = 0
	st.seen = 0
	st.roundBest = nil
	st.roundBestSec = math.Inf(1)
}

func (st *bestConfigStepper) Propose(n int) []Proposal {
	st.CheckPropose(st.Done())
	if st.next >= len(st.points) {
		if st.seen < len(st.points) {
			return nil // waiting for the round's outstanding observations
		}
		st.startRound()
	}
	k := len(st.points) - st.next
	if n > 0 && n < k {
		k = n
	}
	props := make([]Proposal, k)
	for i := 0; i < k; i++ {
		props[i] = Proposal{Config: st.space.Decode(st.points[st.next+i])}
	}
	first := st.Proposed(props)
	for i := 0; i < k; i++ {
		st.slot[first+i] = st.next + i
	}
	st.next += k
	return props
}

func (st *bestConfigStepper) Observe(c conf.Config, rec backend.EvalRecord) {
	seq := st.Observed(c)
	idx := st.slot[seq]
	delete(st.slot, seq)
	st.seen++
	if !rec.Skipped && rec.Completed && rec.Seconds < st.roundBestSec {
		st.roundBestSec = rec.Seconds
		st.roundBest = st.points[idx]
	}
	if st.seen == len(st.points) && st.next >= len(st.points) {
		st.endRound()
	}
}

// endRound applies the RBS bounds update (or diverges back to the
// full space) once every point of the round has been observed.
func (st *bestConfigStepper) endRound() {
	if st.roundBest == nil || st.roundBestSec >= st.prevBest {
		// No improvement: diverge back to the full space
		// (bound-and-search restart).
		st.resetBounds()
		return
	}
	st.prevBest = st.roundBestSec

	// RBS: bound the next round between the incumbent's neighboring
	// sample values on each axis.
	for j := 0; j < st.d; j++ {
		nlo, nhi := st.lo[j], st.hi[j]
		for _, p := range st.points {
			if p[j] < st.roundBest[j] && p[j] > nlo {
				nlo = p[j]
			}
			if p[j] > st.roundBest[j] && p[j] < nhi {
				nhi = p[j]
			}
		}
		if nhi-nlo < 1e-6 {
			// Degenerate interval: widen slightly around the best.
			span := (st.hi[j] - st.lo[j]) * 0.05
			nlo = math.Max(0, st.roundBest[j]-span)
			nhi = math.Min(1, st.roundBest[j]+span)
		}
		st.lo[j], st.hi[j] = nlo, nhi
	}
}
