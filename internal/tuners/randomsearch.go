package tuners

import (
	"math/rand/v2"

	"repro/internal/backend"
	"repro/internal/conf"
	"repro/internal/sample"
)

// RandomSearch explores parameter ranges uniformly at random
// (Bergstra & Bengio), the baseline every tuner in §5 is scaled
// against. It is surprisingly competitive in high-dimensional spaces,
// which is exactly the paper's observation about search-based tuners
// that underexploit.
type RandomSearch struct{}

// Name implements Tuner.
func (RandomSearch) Name() string { return "RandomSearch" }

// Run implements Tuner by driving the stepper.
func (t RandomSearch) Run(s *Session) Result {
	return Drive(t.Stepper(s.Space(), s.Budget(), s.Seed()), s)
}

// Stepper returns the ask/tell form of random search.
func (RandomSearch) Stepper(space *conf.Space, budget int, seed uint64) Stepper {
	return &randomSearchStepper{
		space: space,
		rng:   sample.NewRNG(seed),
		left:  budget,
	}
}

type randomSearchStepper struct {
	Protocol
	space *conf.Space
	rng   *rand.Rand
	left  int
}

func (st *randomSearchStepper) Done() bool { return st.left <= 0 }

func (st *randomSearchStepper) Propose(n int) []Proposal {
	st.CheckPropose(st.Done())
	if n <= 0 || n > st.left {
		n = st.left
	}
	props := make([]Proposal, n)
	u := make([]float64, st.space.Dim())
	for i := range props {
		for j := range u {
			u[j] = st.rng.Float64()
		}
		props[i] = Proposal{Config: st.space.Decode(u)}
	}
	st.left -= n
	st.Proposed(props)
	return props
}

func (st *randomSearchStepper) Observe(c conf.Config, rec backend.EvalRecord) {
	st.Observed(c)
}
