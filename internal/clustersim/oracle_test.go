package clustersim

// The scheduling loop as it stood before it learned to jump idle
// ticks, skip repeated placement failures and sort only a changed
// queue, kept verbatim as a bit-for-bit oracle: every outcome of
// simulate must equal simulateRef's on the same trace, configuration,
// streams, cap and fault schedule (TestSimulateMatchesOracle,
// FuzzSimulateMatchesOracle).

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/backend"
	"repro/internal/conf"
	"repro/internal/sample"
)

// checkOracle replays one trace through simulate and simulateRef on
// identical streams and fails unless the outcomes are equal. A nil
// plan is Run's fault-free path; otherwise the plan's faults are
// realized from a fault stream, as RunWithFaults does.
func checkOracle(t testing.TB, w Workload, c conf.Config, seed uint64, cap float64, plan *backend.FaultPlan) backend.Outcome {
	t.Helper()
	var fs faultSchedule
	if plan != nil {
		fs = scheduleFaults(*plan, sample.NewRNG(seed^0x9e3779b97f4a7c15), w.Nodes, len(w.Jobs))
	}
	got := simulate(w, c, sample.NewRNG(seed), cap, fs)
	want := simulateRef(w, c, sample.NewRNG(seed), cap, fs)
	if got != want {
		t.Fatalf("%s (%d jobs), cap %v, faults %+v, config %v:\nsimulate    %+v\nsimulateRef %+v",
			w.ID(), len(w.Jobs), cap, plan, c, got, want)
	}
	return got
}

// outcomeKind names how a run ended.
func outcomeKind(o backend.Outcome) string {
	switch {
	case o.Completed:
		return "completed"
	case o.OOM:
		return "oom"
	case o.Transient:
		return "transient"
	case o.Infeasible:
		return "infeasible"
	}
	return "capped"
}

// TestSimulateMatchesOracle sweeps random configurations over every
// catalog trace, with each fault class forced on, proxy fidelities and
// finite, zero and infinite caps, and requires every outcome to equal
// the reference loop's. The sweep must reach every outcome kind, all
// three queue disciplines and both preemption settings, so the jumps
// over idle ticks, the per-pass failure memo and the skipped sorts are
// all exercised against the loop that runs every tick in full.
func TestSimulateMatchesOracle(t *testing.T) {
	sp := Space()
	rng := sample.NewRNG(2025)
	plans := []*backend.FaultPlan{
		nil,
		{ExecutorLossProb: 1},
		{SpuriousOOMProb: 1},
		{TransientErrProb: 1},
		{StragglerProb: 0.5, StragglerFactor: 3},
		{ExecutorLossProb: 1, SpuriousOOMProb: 1, TransientErrProb: 0.3, StragglerProb: 0.3},
	}
	fids := []backend.Fidelity{{}, {}, {InputScale: 1.0 / 3}, {StageFrac: 1.0 / 9}, {InputScale: 0.5, StageFrac: 0.5}}
	kinds := map[string]int{}
	queues := map[string]bool{}
	preempt := map[bool]bool{}
	runs := 0
	for _, name := range Families {
		for di := 0; di < 3; di++ {
			full := mustWorkload(t, name, di)
			for i := 0; i < 100; i++ {
				c := sp.Decode(sample.Uniform(1, sp.Dim(), rng)[0])
				w := ApplyFidelity(fids[rng.IntN(len(fids))], full)
				plan := plans[rng.IntN(len(plans))]
				var cap float64
				switch rng.IntN(4) {
				case 0:
					cap = DefaultCapSeconds
				case 1:
					cap = 100 + 2300*rng.Float64()
				case 2:
					cap = 0
				default:
					cap = math.Inf(1)
				}
				kinds[outcomeKind(checkOracle(t, w, c, rng.Uint64(), cap, plan))]++
				p := decodePolicy(c)
				queues[p.queue] = true
				preempt[p.preempt] = true
				runs++
			}
		}
	}
	// No pod of a catalog trace outgrows a node, so build one that does.
	w := mustWorkload(t, "MLTrain", 0)
	w.Jobs = append([]Job(nil), w.Jobs...)
	w.Jobs[0].MemGB = w.NodeMemGB * 2
	kinds[outcomeKind(checkOracle(t, w, sp.Default(), 1, DefaultCapSeconds, nil))]++
	runs++

	t.Logf("%d runs: %v", runs, kinds)
	for _, k := range []string{"completed", "capped", "oom", "transient", "infeasible"} {
		if kinds[k] == 0 {
			t.Errorf("no %s run in the sweep", k)
		}
	}
	for _, q := range []string{"fifo", "sjf", "priority"} {
		if !queues[q] {
			t.Errorf("queue discipline %s never swept", q)
		}
	}
	if !preempt[true] || !preempt[false] {
		t.Errorf("preemption settings swept: %v, want both", preempt)
	}
}

// TestCapBoundaryCompletion pins the one boundary where jumping to the
// next event meets the cap: a run whose last pod ends exactly on a tick
// equal to the cap completes there, because the loop returns the cap
// only on a tick past it. The pod's duration is tuned until its end
// time is exactly the integer cap.
func TestCapBoundaryCompletion(t *testing.T) {
	const capS, seed = 40.0, 3
	c := Space().Default().With(SchedInterval, 1)
	w := Workload{Name: "one-pod", Dataset: "D1", Nodes: 1, NodeCPU: 16, NodeMemGB: 64,
		Jobs: []Job{{Arrival: 0, Pods: 1, CPU: 1, MemGB: 1, Duration: 30}}}
	jit := noiseJitter(w, sample.NewRNG(seed))[0][0]
	overhead := 1 + 0.005/decodePolicy(c).tick
	end := func(d float64) float64 { return d * jit * 1 * overhead } // simulate's duration on a straggle-free node
	d := capS / (jit * overhead)
	for i := 0; i < 64 && end(d) != capS; i++ {
		d = math.Nextafter(d, d+capS-end(d))
	}
	if end(d) != capS {
		t.Fatal("no duration ends the pod exactly on the cap")
	}
	w.Jobs[0].Duration = d
	want := backend.Outcome{Seconds: capS, Completed: true}
	if got := checkOracle(t, w, c, seed, capS, nil); got != want {
		t.Fatalf("outcome %+v, want %+v", got, want)
	}
}

// FuzzSimulateMatchesOracle drives the same comparison from fuzzed
// inputs: the configuration vector (one byte per dimension, missing
// bytes at the midpoint), the seed (which also picks the trace), the
// cap, one bit per fault class and a fidelity byte (input scale in the
// low nibble, stage fraction in the high one, in sixteenths).
func FuzzSimulateMatchesOracle(f *testing.F) {
	f.Add([]byte{}, uint64(0), 2400.0, byte(0), byte(0xff))
	f.Add([]byte{0, 255, 128, 200, 255, 30, 255, 255, 255, 1, 255, 255, 0}, uint64(5), 0.0, byte(0x0f), byte(0xff))
	f.Add([]byte{200, 10, 40, 250, 255, 255, 200, 0, 0, 2, 128, 128, 255}, uint64(10), math.Inf(1), byte(0x03), byte(0x37))
	f.Add([]byte{9, 99, 170, 3, 0, 0, 0, 255, 255, 0, 0, 255, 20}, uint64(7), 350.5, byte(0x0c), byte(0x70))
	sp := Space()
	f.Fuzz(func(t *testing.T, vec []byte, seed uint64, cap float64, faults, fid byte) {
		if math.IsNaN(cap) || cap > 1e5 && !math.IsInf(cap, 1) {
			t.Skip("cap outside the swept range")
		}
		u := make([]float64, sp.Dim())
		for i := range u {
			u[i] = 0.5
			if i < len(vec) {
				u[i] = float64(vec[i]) / 255
			}
		}
		w, err := WorkloadByName(Families[seed%4], int(seed/4%3))
		if err != nil {
			t.Fatal(err)
		}
		w = ApplyFidelity(backend.Fidelity{InputScale: float64(fid&15+1) / 16, StageFrac: float64(fid>>4+1) / 16}, w)
		var plan *backend.FaultPlan
		if faults != 0 {
			plan = &backend.FaultPlan{}
			if faults&1 != 0 {
				plan.ExecutorLossProb = 1
			}
			if faults&2 != 0 {
				plan.SpuriousOOMProb = 1
			}
			if faults&4 != 0 {
				plan.TransientErrProb = 1
			}
			if faults&8 != 0 {
				plan.StragglerProb = 1
			}
		}
		checkOracle(t, w, sp.Decode(u), seed, cap, plan)
	})
}

func simulateRef(w Workload, c conf.Config, rng *rand.Rand, cap float64, fs faultSchedule) backend.Outcome {
	p := decodePolicy(c)
	jit := noiseJitter(w, rng) // drawn before any early return: constant stream use
	if math.IsInf(cap, 1) || cap <= 0 {
		cap = 1e9
	}

	// A pod that cannot fit on an empty node under the configured
	// overcommit can never run.
	for _, j := range w.Jobs {
		if j.CPU > w.NodeCPU*p.ocCPU || j.MemGB > w.NodeMemGB*p.ocMem {
			return backend.Outcome{Seconds: cap, Infeasible: true}
		}
	}

	// Scheduler overhead: an aggressive loop period taxes every pod.
	overhead := 1 + 0.005/p.tick

	nodes := make([]node, w.Nodes)
	for i := range nodes {
		nodes[i].straggle = 1
		if fs.active && i < len(fs.straggle) {
			nodes[i].straggle = fs.straggle[i]
		}
	}
	span := w.Jobs[len(w.Jobs)-1].Arrival + 60
	failAt := math.Inf(1)
	if fs.active && fs.failNode >= 0 {
		failAt = fs.failAt * span
	}
	transientAt := math.Inf(1)
	if fs.active && fs.transientAt >= 0 {
		transientAt = fs.transientAt * cap
	}

	var pending, requeued []pod
	var run []running
	remaining := make([]int, len(w.Jobs))
	doneAt := make([]float64, len(w.Jobs))
	oomStrikes := make([]int, len(w.Jobs))
	for i, j := range w.Jobs {
		remaining[i] = j.Pods
	}
	nextArrival, jobsDone := 0, 0

	duration := func(ji, pi, ni int) float64 {
		d := w.Jobs[ji].Duration * jit[ji][pi] * nodes[ni].straggle * overhead
		// CPU oversubscription past physical capacity slows the pod.
		if r := (nodes[ni].cpu + w.Jobs[ji].CPU) / w.NodeCPU; r > 1 {
			d *= r
		}
		return d
	}

	// requeue frees an evicted pod's resources and schedules its retry
	// after an exponentially growing backoff. Evicted pods collect in
	// requeued — never directly in pending — so an eviction during the
	// placement pass cannot be lost when the pass rebuilds pending.
	requeue := func(r running, t float64) {
		nodes[r.node].cpu -= w.Jobs[r.job].CPU
		nodes[r.node].mem -= w.Jobs[r.job].MemGB
		back := p.backoff * math.Pow(p.backoffFactor, float64(r.evictions))
		requeued = append(requeued, pod{job: r.job, idx: r.idx, ready: t + back, evictions: r.evictions + 1})
	}

	for t := 0.0; ; t += p.tick {
		if t > cap {
			return backend.Outcome{Seconds: cap}
		}
		if t >= transientAt {
			return backend.Outcome{Seconds: t, Transient: true}
		}
		// Node failure: evict its pods, remove its capacity.
		if fs.active && fs.failNode >= 0 && !nodes[fs.failNode].dead && t >= failAt {
			nodes[fs.failNode].dead = true
			kept := run[:0]
			for _, r := range run {
				if r.node == fs.failNode {
					requeue(r, t)
					continue
				}
				kept = append(kept, r)
			}
			run = kept
		}
		// Completions and spurious OOM kills due by now.
		kept := run[:0]
		for _, r := range run {
			switch {
			case r.oomAt > 0 && r.oomAt <= t:
				requeue(r, r.oomAt)
			case r.end <= t:
				nodes[r.node].cpu -= w.Jobs[r.job].CPU
				nodes[r.node].mem -= w.Jobs[r.job].MemGB
				remaining[r.job]--
				if r.end > doneAt[r.job] {
					doneAt[r.job] = r.end
				}
				if remaining[r.job] == 0 {
					jobsDone++
				}
			default:
				kept = append(kept, r)
			}
		}
		run = kept
		// Arrivals due by now.
		for nextArrival < len(w.Jobs) && w.Jobs[nextArrival].Arrival <= t {
			for k := 0; k < w.Jobs[nextArrival].Pods; k++ {
				pending = append(pending, pod{job: nextArrival, idx: k, ready: w.Jobs[nextArrival].Arrival})
			}
			nextArrival++
		}
		if jobsDone == len(w.Jobs) && nextArrival == len(w.Jobs) {
			break
		}
		// Placement pass over the ready queue in policy order.
		pending = append(pending, requeued...)
		requeued = requeued[:0]
		sortQueueRef(pending, w, p.queue)
		var still []pod
		for _, pd := range pending {
			if pd.ready > t {
				still = append(still, pd)
				continue
			}
			j := w.Jobs[pd.job]
			ni := pickNodeRef(nodes, w, p, j)
			if ni < 0 && p.preempt && j.Priority > 0 {
				ni = preemptForRef(nodes, &run, w, p, j, t, requeue)
			}
			if ni < 0 {
				still = append(still, pd)
				continue
			}
			d := duration(pd.job, pd.idx, ni)
			if j.Priority > 0 && p.preempt {
				// The grace period granted to any evicted pod delays the
				// preemptor's start; charge it unconditionally so the
				// knob has a cost even when no eviction happened.
				d += p.grace * 0.1
			}
			nodes[ni].cpu += j.CPU
			nodes[ni].mem += j.MemGB
			r := running{job: pd.job, idx: pd.idx, node: ni, end: t + d, placedAt: t,
				evictions: pd.evictions}
			// Memory pressure past physical capacity OOM-kills the
			// newcomer; three strikes fail the run.
			if nodes[ni].mem > w.NodeMemGB*1.2 {
				oomStrikes[pd.job]++
				if oomStrikes[pd.job] >= 3 {
					return backend.Outcome{Seconds: cap, OOM: true}
				}
				requeue(r, t)
				continue
			}
			if fs.active && fs.oomJob == pd.job && pd.idx == 0 && pd.evictions == 0 {
				r.oomAt = t + d/2
			}
			run = append(run, r)
		}
		pending = append(still, requeued...)
		requeued = requeued[:0]
	}

	// Metric over the completed trace.
	first := w.Jobs[0].Arrival
	switch w.Metric {
	case P95Latency:
		lat := make([]float64, len(w.Jobs))
		for i := range w.Jobs {
			lat[i] = doneAt[i] - w.Jobs[i].Arrival
		}
		sort.Float64s(lat)
		idx := int(math.Ceil(0.95*float64(len(lat)))) - 1
		if idx < 0 {
			idx = 0
		}
		return backend.Outcome{Seconds: lat[idx], Completed: true}
	default:
		var last float64
		for i := range doneAt {
			if doneAt[i] > last {
				last = doneAt[i]
			}
		}
		return backend.Outcome{Seconds: last - first, Completed: true}
	}
}

// sortQueueRef orders the pending queue by the configured discipline;
// every discipline tie-breaks by (job, pod) index, so the order is a
// pure function of the queue contents.
func sortQueueRef(pending []pod, w Workload, queue string) {
	less := func(a, b pod) bool { return a.job < b.job || (a.job == b.job && a.idx < b.idx) }
	switch queue {
	case "sjf":
		sort.SliceStable(pending, func(i, j int) bool {
			di, dj := w.Jobs[pending[i].job].Duration, w.Jobs[pending[j].job].Duration
			if di != dj {
				return di < dj
			}
			return less(pending[i], pending[j])
		})
	case "priority":
		sort.SliceStable(pending, func(i, j int) bool {
			pi, pj := w.Jobs[pending[i].job].Priority, w.Jobs[pending[j].job].Priority
			if pi != pj {
				return pi > pj
			}
			return less(pending[i], pending[j])
		})
	default: // fifo
		sort.SliceStable(pending, func(i, j int) bool { return less(pending[i], pending[j]) })
	}
}

// pickNodeRef scores the eligible nodes under the configured policy and
// returns the winner, or -1 when nothing fits. Ties break by node
// index.
func pickNodeRef(nodes []node, w Workload, p policy, j Job) int {
	best, bestScore := -1, math.Inf(-1)
	for i := range nodes {
		n := &nodes[i]
		if n.dead || n.cpu+j.CPU > w.NodeCPU*p.ocCPU || n.mem+j.MemGB > w.NodeMemGB*p.ocMem {
			continue
		}
		cpuFree := 1 - (n.cpu+j.CPU)/(w.NodeCPU*p.ocCPU)
		memFree := 1 - (n.mem+j.MemGB)/(w.NodeMemGB*p.ocMem)
		var score float64
		switch p.scoring {
		case "binpack":
			// Prefer the fullest node still below the packing
			// threshold; nodes past it repel further pods.
			util := 1 - math.Min(cpuFree, memFree)
			score = -(p.cpuW*cpuFree + p.memW*memFree)
			if util > p.binpack {
				score -= 10
			}
		case "balanced":
			score = -math.Abs(cpuFree - memFree)
		default: // spread
			score = p.cpuW*cpuFree + p.memW*memFree
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// preemptForRef tries to make room for a production pod by evicting the
// most recently placed batch pods from one node, within the
// per-attempt eviction budget. Returns the freed node or -1.
func preemptForRef(nodes []node, run *[]running, w Workload, p policy, j Job, t float64, requeue func(running, float64)) int {
	for ni := range nodes {
		n := &nodes[ni]
		if n.dead {
			continue
		}
		// Newest-first batch victims on this node.
		var victims []int
		for ri, r := range *run {
			if r.node == ni && w.Jobs[r.job].Priority == 0 {
				victims = append(victims, ri)
			}
		}
		sort.SliceStable(victims, func(a, b int) bool {
			return (*run)[victims[a]].placedAt > (*run)[victims[b]].placedAt
		})
		cpu, mem := n.cpu, n.mem
		var take []int
		for _, ri := range victims {
			if int64(len(take)) >= p.maxPreempt {
				break
			}
			if cpu+j.CPU <= w.NodeCPU*p.ocCPU && mem+j.MemGB <= w.NodeMemGB*p.ocMem {
				break
			}
			cpu -= w.Jobs[(*run)[ri].job].CPU
			mem -= w.Jobs[(*run)[ri].job].MemGB
			take = append(take, ri)
		}
		if cpu+j.CPU > w.NodeCPU*p.ocCPU || mem+j.MemGB > w.NodeMemGB*p.ocMem {
			continue
		}
		if len(take) == 0 {
			continue
		}
		// Evict, newest first; removal indices descend so they stay
		// valid.
		sort.Sort(sort.Reverse(sort.IntSlice(take)))
		for _, ri := range take {
			r := (*run)[ri]
			*run = append((*run)[:ri], (*run)[ri+1:]...)
			requeue(r, t)
		}
		return ni
	}
	return -1
}
