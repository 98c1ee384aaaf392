package tuners

import (
	"math"
	"math/rand/v2"
	"sort"

	"repro/internal/backend"
	"repro/internal/conf"
	"repro/internal/sample"
)

// Gunther reimplements the genetic search of "Gunther: Search-Based
// Auto-Tuning of MapReduce" (Liao et al., Euro-Par'13) on the Spark
// configuration space: a randomly initialized population evolved with
// aggressive tournament selection, uniform crossover and Gaussian
// mutation, with elitism.
//
// Following §6 of the ROBOTune paper, Gunther's random initialization
// grows with dimensionality ("the number of random configurations for
// initialization increases by two for each new parameter") and
// consumes a significant share of the budget — the root of its
// RS-like exploration profile in Figures 3-5.
type Gunther struct {
	// PopSize is the evolving population size (default 16).
	PopSize int
	// Elite is the number of best individuals copied unchanged
	// (default 2).
	Elite int
}

// Gunther's Gaussian mutation: each gene mutates with probability
// mutationRate (the "aggressive mutation" of the original) by a step
// of standard deviation mutationSigma.
const (
	mutationRate  = 0.25
	mutationSigma = 0.15
)

// Name implements Tuner.
func (Gunther) Name() string { return "Gunther" }

type individual struct {
	genes   []float64
	fitness float64 // objective seconds; lower is better
}

// Run implements Tuner by driving the stepper.
func (g Gunther) Run(s *Session) Result {
	return Drive(g.Stepper(s.Space(), s.Budget(), s.Seed()), s)
}

// Stepper returns the ask/tell form of Gunther. Each generation
// (and the random initialization pool) is proposed as one wave; the
// next generation's parents are drawn only after the whole wave has
// been observed. All random draws for a wave happen before any of its
// evaluations, so the rng sequence is identical to the blocking loop.
func (g Gunther) Stepper(space *conf.Space, budget int, seed uint64) Stepper {
	if g.PopSize <= 0 {
		g.PopSize = 16
	}
	if g.Elite <= 0 {
		g.Elite = 2
	}
	st := &guntherStepper{
		cfg:    g,
		space:  space,
		rng:    sample.NewRNG(seed),
		d:      space.Dim(),
		budget: budget,
	}
	st.startInit()
	return st
}

type guntherStepper struct {
	Protocol
	cfg    Gunther
	space  *conf.Space
	rng    *rand.Rand
	d      int
	budget int
	used   int
	done   bool

	initPhase bool
	pop       []individual
	elites    []individual

	// Current wave: its individuals in creation order, their fitness
	// filled in as they are observed.
	batch []individual
	wave  Wave
}

func (st *guntherStepper) Done() bool { return st.done }

// startInit builds the random initialization pool: 2 configurations
// per tuned parameter (faithful to the original; on the 44-parameter
// Spark space with the paper's budget of 100 this consumes 88
// evaluations — §5.2's "significant portion of the allocated
// budget"), leaving at least one generation of evolution when the
// budget allows.
func (st *guntherStepper) startInit() {
	st.initPhase = true
	initN := 2 * st.d
	if maxInit := st.budget - st.cfg.PopSize; initN > maxInit {
		initN = maxInit
	}
	if initN < st.cfg.PopSize {
		initN = st.cfg.PopSize
	}
	if initN > st.budget {
		initN = st.budget
	}
	if initN <= 0 {
		st.done = true
		return
	}
	st.batch = make([]individual, initN)
	for i, genes := range sample.Uniform(initN, st.d, st.rng) {
		st.batch[i].genes = genes
	}
	st.used = initN
	st.wave.Start(initN)
}

func (st *guntherStepper) tournament() individual {
	best := st.pop[st.rng.IntN(len(st.pop))]
	for k := 0; k < 2; k++ {
		c := st.pop[st.rng.IntN(len(st.pop))]
		if c.fitness < best.fitness {
			best = c
		}
	}
	return best
}

// startGeneration draws the whole next generation — elites copied
// unchanged plus tournament-selected, crossed-over and mutated
// children — and reserves its budget up front.
func (st *guntherStepper) startGeneration() {
	st.initPhase = false
	st.elites = st.elites[:0]
	for i := 0; i < st.cfg.Elite && i < len(st.pop); i++ {
		st.elites = append(st.elites, st.pop[i])
	}
	k := st.cfg.PopSize - len(st.elites)
	if left := st.budget - st.used; k > left {
		k = left
	}
	if k <= 0 {
		st.done = true
		return
	}
	st.batch = make([]individual, k)
	for i := range st.batch {
		p1, p2 := st.tournament(), st.tournament()
		child := make([]float64, st.d)
		for j := 0; j < st.d; j++ {
			if st.rng.Float64() < 0.5 {
				child[j] = p1.genes[j]
			} else {
				child[j] = p2.genes[j]
			}
			if st.rng.Float64() < mutationRate {
				child[j] += st.rng.NormFloat64() * mutationSigma
				child[j] = math.Min(math.Nextafter(1, 0), math.Max(0, child[j]))
			}
		}
		st.batch[i].genes = child
	}
	st.used += k
	st.wave.Start(k)
}

func (st *guntherStepper) Propose(n int) []Proposal {
	st.CheckPropose(st.done)
	return st.wave.Propose(&st.Protocol, n, func(i int) Proposal {
		return Proposal{Config: st.space.Decode(st.batch[i].genes)}
	})
}

func (st *guntherStepper) Observe(c conf.Config, rec backend.EvalRecord) {
	idx, complete := st.wave.Observed(st.Observed(c))
	st.batch[idx].fitness = rec.Seconds
	if rec.Skipped {
		st.batch[idx].fitness = math.Inf(1)
	}
	if complete {
		st.endWave()
	}
}

func (st *guntherStepper) endWave() {
	if st.initPhase {
		// Aggressive selection: the best PopSize of the random pool
		// seed the population.
		pool := append([]individual(nil), st.batch...)
		sort.SliceStable(pool, func(a, b int) bool { return pool[a].fitness < pool[b].fitness })
		if len(pool) > st.cfg.PopSize {
			pool = pool[:st.cfg.PopSize]
		}
		st.pop = pool
	} else {
		next := make([]individual, 0, st.cfg.PopSize)
		next = append(next, st.elites...)
		next = append(next, st.batch...)
		sort.SliceStable(next, func(a, b int) bool { return next[a].fitness < next[b].fitness })
		st.pop = next
	}
	if st.used >= st.budget || len(st.pop) == 0 {
		st.done = true
		return
	}
	st.startGeneration()
}
