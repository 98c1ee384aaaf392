package sparksim

import (
	"math/rand/v2"

	"repro/internal/backend"
)

// DefaultFaultPlan returns backend.DefaultFaultPlan — the moderate
// plan the fault-injection stress suite runs under.
func DefaultFaultPlan() backend.FaultPlan { return backend.DefaultFaultPlan() }

// faultSchedule is the per-run realization of a FaultPlan: which
// faults strike, and at which stage.
type faultSchedule struct {
	active         bool
	transientStage int
	execLossStage  int
	oomStage       int
	straggler      []float64 // per-stage multiplier; 1 = untouched
}

// scheduleFaults draws one run's faults. Every class is drawn
// unconditionally and in a fixed order, so the randomness consumed per
// run is constant and the schedule is a pure function of the stream —
// the property that keeps batch and sequential evaluation bit-equal.
func scheduleFaults(p backend.FaultPlan, frng *rand.Rand, nStages int) faultSchedule {
	fs := faultSchedule{active: true, transientStage: -1, execLossStage: -1, oomStage: -1}
	if nStages < 1 {
		nStages = 1
	}
	tp, ti := frng.Float64(), frng.IntN(nStages)
	ep, ei := frng.Float64(), frng.IntN(nStages)
	op, oi := frng.Float64(), frng.IntN(nStages)
	if tp < p.TransientErrProb {
		fs.transientStage = ti
	}
	if ep < p.ExecutorLossProb {
		fs.execLossStage = ei
	}
	if op < p.SpuriousOOMProb {
		fs.oomStage = oi
	}
	fs.straggler = make([]float64, nStages)
	for i := range fs.straggler {
		fs.straggler[i] = 1
		if frng.Float64() < p.StragglerProb {
			fs.straggler[i] = p.EffectiveStragglerFactor()
		}
	}
	return fs
}
