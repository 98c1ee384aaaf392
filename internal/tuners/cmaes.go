package tuners

import (
	"math"

	"repro/internal/backend"
	"repro/internal/conf"
	"repro/internal/optimize"
	"repro/internal/sample"
)

// CMAES is an extension baseline: separable CMA-ES evolving
// configurations directly in the 44-dimensional unit cube. Evolution
// strategies are a standard tool in program autotuning; like Gunther
// it is population-based, but with principled step-size and
// per-coordinate variance adaptation instead of ad-hoc mutation
// rates.
type CMAES struct {
	// Sigma0 is the initial step size (default 0.25 of the cube).
	Sigma0 float64
	// Lambda is the population size (default 4+3·ln d).
	Lambda int
}

// Name implements Tuner.
func (CMAES) Name() string { return "CMAES" }

// Run implements Tuner by driving the stepper.
func (c CMAES) Run(s *Session) Result {
	return Drive(c.Stepper(s.Space(), s.Budget(), s.Seed()), s)
}

// Stepper returns the ask/tell form of CMA-ES: each generation is
// proposed as one wave and told back to the optimizer once fully
// observed. When the budget is below one generation the distribution
// mean is proposed as a last resort, matching the blocking loop.
func (c CMAES) Stepper(space *conf.Space, budget int, seed uint64) Stepper {
	rng := sample.NewRNG(seed)
	// Start from the cube center; CMA-ES handles the rest.
	x0 := make([]float64, space.Dim())
	for i := range x0 {
		x0[i] = 0.5
	}
	st := &cmaesStepper{
		space:  space,
		budget: budget,
		opt: optimize.NewCMAES(x0, optimize.UnitBox(space.Dim()),
			optimize.CMAESConfig{Sigma0: c.Sigma0, Lambda: c.Lambda, MaxEvals: budget, Seed: seed}, rng),
		slot: make(map[int]int),
	}
	st.startGeneration()
	return st
}

type cmaesStepper struct {
	Protocol
	space  *conf.Space
	budget int
	opt    *optimize.CMAESState
	gens   int
	done   bool

	// Current generation state.
	xs   [][]float64
	fs   []float64
	next int
	seen int
	slot map[int]int // proposal sequence → generation index

	meanPhase    bool
	meanProposed bool
}

func (st *cmaesStepper) Done() bool { return st.done }

func (st *cmaesStepper) startGeneration() {
	if !st.opt.Done() {
		st.xs = st.opt.Ask()
		st.fs = make([]float64, len(st.xs))
		st.next = 0
		st.seen = 0
		return
	}
	st.xs = nil
	if st.gens == 0 && st.budget > 0 {
		// Budget below one generation: evaluate the mean, exactly like
		// the blocking optimizer's final fallback.
		st.meanPhase = true
		return
	}
	st.done = true
}

func (st *cmaesStepper) Propose(n int) []Proposal {
	st.CheckPropose(st.done)
	if st.meanPhase {
		if st.meanProposed {
			return nil
		}
		st.meanProposed = true
		props := []Proposal{{Config: st.space.Decode(st.opt.Mean())}}
		st.Proposed(props)
		return props
	}
	if st.next >= len(st.xs) {
		return nil // waiting for the generation's outstanding observations
	}
	k := len(st.xs) - st.next
	if n > 0 && n < k {
		k = n
	}
	props := make([]Proposal, k)
	for i := 0; i < k; i++ {
		props[i] = Proposal{Config: st.space.Decode(st.xs[st.next+i])}
	}
	first := st.Proposed(props)
	for i := 0; i < k; i++ {
		st.slot[first+i] = st.next + i
	}
	st.next += k
	return props
}

func (st *cmaesStepper) Observe(c conf.Config, rec backend.EvalRecord) {
	seq := st.Observed(c)
	if st.meanPhase {
		st.done = true
		return
	}
	idx := st.slot[seq]
	delete(st.slot, seq)
	f := rec.Seconds
	if rec.Skipped {
		f = math.Inf(1)
	}
	st.fs[idx] = f
	st.seen++
	if st.seen == len(st.xs) && st.next >= len(st.xs) {
		st.opt.Tell(st.fs)
		st.gens++
		st.startGeneration()
	}
}
