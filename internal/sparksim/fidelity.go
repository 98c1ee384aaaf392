package sparksim

import (
	"math"

	"repro/internal/backend"
)

// FullFidelity is the explicit full-scale value; identical to the
// zero Fidelity.
var FullFidelity = backend.FullFidelity

// ApplyFidelity derives the proxy workload f selects from w. Full
// fidelity returns w unchanged (no copy). Otherwise every retained
// stage's data volumes are scaled by f.Scale() — broadcast traffic
// excepted: model state shipped to executors does not shrink with the
// input — and the plan is cut to its first ceil(f.Frac()·len) stages.
// A prefix always remains a valid plan: cached RDDs are written before
// they are read, so truncation can only drop readers, never producers.
// The result satisfies Workload.Validate whenever w does, and the same
// (workload, fidelity) pair always yields the same proxy, so journaled
// evaluations replay bit-identically.
func ApplyFidelity(f backend.Fidelity, w Workload) Workload {
	if f.Full() {
		return w
	}
	keep := len(w.Stages)
	if frac := f.Frac(); frac < 1 {
		keep = int(math.Ceil(frac * float64(len(w.Stages))))
		if keep < 1 {
			keep = 1
		}
	}
	s := f.Scale()
	stages := make([]Stage, keep)
	for i := 0; i < keep; i++ {
		st := w.Stages[i]
		st.InputMB *= s
		st.ShuffleOutMB *= s
		st.WriteHDFSMB *= s
		st.CacheOutMB *= s
		stages[i] = st
	}
	w.Stages = stages
	return w
}
