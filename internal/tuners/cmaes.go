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
			optimize.CMAESConfig{Lambda: c.Lambda, MaxEvals: budget}, rng),
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

	// Current generation: its points and their observed values.
	xs  [][]float64
	fs  []float64
	gen Wave

	meanPhase bool
}

func (st *cmaesStepper) Done() bool { return st.done }

func (st *cmaesStepper) startGeneration() {
	if !st.opt.Done() {
		st.xs = st.opt.Ask()
		st.fs = make([]float64, len(st.xs))
		st.gen.Start(len(st.xs))
		return
	}
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
		if st.Outstanding() > 0 {
			return nil
		}
		props := []Proposal{{Config: st.space.Decode(st.opt.Mean())}}
		st.Proposed(props)
		return props
	}
	return st.gen.Propose(&st.Protocol, n, func(i int) Proposal {
		return Proposal{Config: st.space.Decode(st.xs[i])}
	})
}

func (st *cmaesStepper) Observe(c conf.Config, rec backend.EvalRecord) {
	seq := st.Observed(c)
	if st.meanPhase {
		st.done = true
		return
	}
	idx, complete := st.gen.Observed(seq)
	st.fs[idx] = rec.Seconds
	if rec.Skipped {
		st.fs[idx] = math.Inf(1)
	}
	if complete {
		st.opt.Tell(st.fs)
		st.gens++
		st.startGeneration()
	}
}
