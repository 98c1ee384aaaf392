package clustersim

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"sort"

	"repro/internal/backend"
	"repro/internal/conf"
)

// policy is the decoded scheduler configuration.
type policy struct {
	cpuW, memW    float64
	scoring       string
	binpack       float64
	preempt       bool
	grace         float64
	maxPreempt    int64
	backoff       float64
	backoffFactor float64
	queue         string
	ocCPU, ocMem  float64
	tick          float64
}

func decodePolicy(c conf.Config) policy {
	return policy{
		cpuW:          c.Float(CPUScoreWeight),
		memW:          c.Float(MemScoreWeight),
		scoring:       c.Choice(ScoringPolicy),
		binpack:       c.Float(BinpackThreshold),
		preempt:       c.Bool(PreemptionEnabled),
		grace:         c.Float(PreemptionGrace),
		maxPreempt:    c.Int(MaxPreemptions),
		backoff:       c.Float(EvictionBackoff),
		backoffFactor: c.Float(BackoffFactor),
		queue:         c.Choice(QueuePolicy),
		ocCPU:         c.Float(OvercommitCPU),
		ocMem:         c.Float(OvercommitMem),
		tick:          c.Float(SchedInterval),
	}
}

// faultSchedule is the per-run realization of a backend.FaultPlan in
// cluster terms: a node crash, per-node stragglers, one spurious pod
// OOM kill and a transient whole-run abort.
type faultSchedule struct {
	active      bool
	transientAt float64 // fraction of cap; < 0 = none
	failNode    int     // node index; -1 = none
	failAt      float64 // fraction of trace span
	oomJob      int     // job index; -1 = none
	straggle    []float64
}

// scheduleFaults draws one run's faults. Every class is drawn
// unconditionally and in a fixed order, so the randomness consumed
// per run is constant and the schedule is a pure function of the
// stream — the property that keeps batch and sequential evaluation
// bit-equal.
func scheduleFaults(p backend.FaultPlan, frng *rand.Rand, nodes, jobs int) faultSchedule {
	fs := faultSchedule{active: true, transientAt: -1, failNode: -1, oomJob: -1}
	if nodes < 1 {
		nodes = 1
	}
	if jobs < 1 {
		jobs = 1
	}
	tp, tt := frng.Float64(), frng.Float64()
	np, ni, nt := frng.Float64(), frng.IntN(nodes), frng.Float64()
	op, oi := frng.Float64(), frng.IntN(jobs)
	if tp < p.TransientErrProb {
		fs.transientAt = 0.1 + 0.8*tt
	}
	if np < p.ExecutorLossProb {
		fs.failNode, fs.failAt = ni, nt
	}
	if op < p.SpuriousOOMProb {
		fs.oomJob = oi
	}
	fs.straggle = make([]float64, nodes)
	for i := range fs.straggle {
		fs.straggle[i] = 1
		if frng.Float64() < p.StragglerProb {
			fs.straggle[i] = p.EffectiveStragglerFactor()
		}
	}
	return fs
}

type node struct {
	cpu, mem float64 // allocated
	dead     bool
	straggle float64
}

type pod struct {
	job, idx  int
	ready     float64 // earliest placement time
	evictions int
}

type running struct {
	job, idx  int
	node      int
	end       float64
	cpu, mem  float64
	priority  int
	placedAt  float64
	evictions int
	oomAt     float64 // spurious-OOM kill time; 0 = none
}

// noiseJitter pre-draws the per-pod duration jitter in a fixed order;
// the randomness a run consumes depends only on the trace, never on
// the configuration, so every configuration at one evaluation index
// sees identical noise.
func noiseJitter(w Workload, rng *rand.Rand) [][]float64 {
	jit := make([][]float64, len(w.Jobs))
	for i, j := range w.Jobs {
		jit[i] = make([]float64, j.Pods)
		for k := range jit[i] {
			jit[i][k] = 1 + 0.05*(2*rng.Float64()-1)
		}
	}
	return jit
}

// Run simulates the trace under the configuration without faults.
//
// cap bounds the simulated seconds: a run still going at the first
// scheduler tick past cap returns Outcome{Seconds: cap}. A cap that is
// +Inf or not positive means 1e9 s. A trace that can make no further
// progress (a lost node leaves no room for the pods still waiting)
// returns the cap outcome as soon as no arrival, completion or backoff
// expiry is left before the cap, without ticking through the idle
// time.
func Run(w Workload, c conf.Config, rng *rand.Rand, cap float64) backend.Outcome {
	return simulate(w, c, rng, cap, faultSchedule{})
}

// RunWithFaults simulates the trace with the plan's faults realized
// from frng. cap means what it means for Run.
func RunWithFaults(w Workload, c conf.Config, rng *rand.Rand, cap float64, plan backend.FaultPlan, frng *rand.Rand) backend.Outcome {
	return simulate(w, c, rng, cap, scheduleFaults(plan, frng, w.Nodes, len(w.Jobs)))
}

func simulate(w Workload, c conf.Config, rng *rand.Rand, cap float64, fs faultSchedule) backend.Outcome {
	p := decodePolicy(c)
	jit := noiseJitter(w, rng) // drawn before any early return: constant stream use
	if math.IsInf(cap, 1) || cap <= 0 {
		cap = 1e9
	}

	// A pod that cannot fit on an empty node under the configured
	// overcommit can never run.
	pods := 0
	for i := range w.Jobs {
		j := &w.Jobs[i]
		if j.CPU > w.NodeCPU*p.ocCPU || j.MemGB > w.NodeMemGB*p.ocMem {
			return backend.Outcome{Seconds: cap, Infeasible: true}
		}
		pods += j.Pods
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
	failAt := math.Inf(1) // reset to +Inf once the node has failed
	if fs.active && fs.failNode >= 0 {
		failAt = fs.failAt * span
	}
	transientAt := math.Inf(1)
	if fs.active && fs.transientAt >= 0 {
		transientAt = fs.transientAt * cap
	}

	// Every pod is in exactly one of pending, requeued and run, so
	// buffers of the trace's pod count never grow. They are local to
	// the call: batch evaluation runs simulations concurrently.
	pending := make([]pod, 0, pods)
	requeued := make([]pod, 0, pods)
	run := make([]running, 0, pods)
	victims := make([]int, 0, pods) // preemptFor's scratch
	remaining := make([]int, len(w.Jobs))
	doneAt := make([]float64, len(w.Jobs))
	oomStrikes := make([]int, len(w.Jobs))
	for i := range w.Jobs {
		remaining[i] = w.Jobs[i].Pods
	}
	nextArrival, jobsDone := 0, 0
	sorted := true // pending is in policy order: nothing appended since the last sort

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
		if t >= failAt {
			failAt = math.Inf(1)
			nodes[fs.failNode].dead = true
			kept := run[:0]
			for i := range run {
				if run[i].node == fs.failNode {
					requeue(run[i], t)
					continue
				}
				kept = append(kept, run[i])
			}
			run = kept
		}
		// Completions and spurious OOM kills due by now.
		kept := run[:0]
		for i := range run {
			r := &run[i]
			switch {
			case r.oomAt > 0 && r.oomAt <= t:
				requeue(*r, r.oomAt)
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
				kept = append(kept, *r)
			}
		}
		run = kept
		// Arrivals due by now.
		for nextArrival < len(w.Jobs) && w.Jobs[nextArrival].Arrival <= t {
			j := &w.Jobs[nextArrival]
			for k := 0; k < j.Pods; k++ {
				pending = append(pending, pod{job: nextArrival, idx: k, ready: j.Arrival})
			}
			nextArrival++
			sorted = false
		}
		if jobsDone == len(w.Jobs) && nextArrival == len(w.Jobs) {
			break
		}
		// Placement pass over the ready queue in policy order. The order
		// is total, so a queue nothing was appended to since the last
		// sort is still sorted.
		if len(requeued) > 0 {
			pending = append(pending, requeued...)
			requeued = requeued[:0]
			sorted = false
		}
		if !sorted {
			sortQueue(pending, w, p.queue)
			sorted = true
		}
		// The pods of one job share their demands and priority, so once
		// one finds no node (and no room by preemption), the job's later
		// pods fail too until a placement or eviction changes the nodes:
		// failJob skips them. A failed preemptFor changes nothing.
		placed, failJob := false, -1
		still := pending[:0]
		for _, pd := range pending {
			if pd.ready > t || pd.job == failJob {
				still = append(still, pd)
				continue
			}
			j := &w.Jobs[pd.job]
			ni := pickNode(nodes, w, p, j)
			if ni < 0 && p.preempt && j.Priority > 0 {
				ni = preemptFor(nodes, &run, w, p, j, t, requeue, victims)
			}
			if ni < 0 {
				still = append(still, pd)
				failJob = pd.job
				continue
			}
			placed, failJob = true, -1
			d := duration(pd.job, pd.idx, ni)
			if j.Priority > 0 && p.preempt {
				// The grace period granted to any evicted pod delays the
				// preemptor's start; charge it unconditionally so the
				// knob has a cost even when no eviction happened.
				d += p.grace * 0.1
			}
			nodes[ni].cpu += j.CPU
			nodes[ni].mem += j.MemGB
			r := running{job: pd.job, idx: pd.idx, node: ni, end: t + d,
				cpu: j.CPU, mem: j.MemGB, priority: j.Priority, placedAt: t,
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
		if len(requeued) > 0 {
			requeued = requeued[:0]
			sorted = false
		}
		if placed {
			continue
		}
		// A quiet tick: the pass changed nothing, so every later pass
		// finds the same nodes, run list and queue, and changes nothing
		// either, until a completion, OOM kill, arrival, backoff expiry,
		// node failure or transient abort comes due. Jump to the first
		// tick at or past that time, stepping t exactly as the loop does
		// so the tick times stay bit-identical.
		next := min(transientAt, failAt)
		if nextArrival < len(w.Jobs) {
			next = min(next, w.Jobs[nextArrival].Arrival)
		}
		for i := range run {
			next = min(next, run[i].end)
			if run[i].oomAt > 0 {
				next = min(next, run[i].oomAt)
			}
		}
		for i := range pending {
			if pending[i].ready > t {
				next = min(next, pending[i].ready)
			}
		}
		if next > cap {
			// Every tick up to the first past cap would be quiet.
			return backend.Outcome{Seconds: cap}
		}
		for t+p.tick < next {
			t += p.tick
		}
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

// sortQueue orders the pending queue by the configured discipline;
// every discipline tie-breaks by (job, pod) index, which is unique per
// pod, so the order is total and the sorted queue is a pure function
// of the queue contents.
func sortQueue(pending []pod, w Workload, queue string) {
	byPod := func(a, b pod) int {
		if c := cmp.Compare(a.job, b.job); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	}
	switch queue {
	case "sjf":
		slices.SortStableFunc(pending, func(a, b pod) int {
			if c := cmp.Compare(w.Jobs[a.job].Duration, w.Jobs[b.job].Duration); c != 0 {
				return c
			}
			return byPod(a, b)
		})
	case "priority":
		slices.SortStableFunc(pending, func(a, b pod) int {
			if c := cmp.Compare(w.Jobs[b.job].Priority, w.Jobs[a.job].Priority); c != 0 {
				return c
			}
			return byPod(a, b)
		})
	default: // fifo
		slices.SortStableFunc(pending, byPod)
	}
}

// pickNode scores the eligible nodes under the configured policy and
// returns the winner, or -1 when nothing fits. Ties break by node
// index.
func pickNode(nodes []node, w Workload, p policy, j *Job) int {
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

// preemptFor tries to make room for a production pod by evicting the
// most recently placed batch pods from one node, within the
// per-attempt eviction budget. Returns the freed node or -1; on -1
// nothing has changed. victims is scratch space of capacity len(*run).
func preemptFor(nodes []node, run *[]running, w Workload, p policy, j *Job, t float64, requeue func(running, float64), victims []int) int {
	for ni := range nodes {
		n := &nodes[ni]
		if n.dead {
			continue
		}
		// Newest-first batch victims on this node.
		victims = victims[:0]
		for ri := range *run {
			if r := &(*run)[ri]; r.node == ni && r.priority == 0 {
				victims = append(victims, ri)
			}
		}
		slices.SortStableFunc(victims, func(a, b int) int {
			return cmp.Compare((*run)[b].placedAt, (*run)[a].placedAt)
		})
		cpu, mem := n.cpu, n.mem
		take := 0
		for _, ri := range victims {
			if int64(take) >= p.maxPreempt {
				break
			}
			if cpu+j.CPU <= w.NodeCPU*p.ocCPU && mem+j.MemGB <= w.NodeMemGB*p.ocMem {
				break
			}
			cpu -= (*run)[ri].cpu
			mem -= (*run)[ri].mem
			take++
		}
		if cpu+j.CPU > w.NodeCPU*p.ocCPU || mem+j.MemGB > w.NodeMemGB*p.ocMem {
			continue
		}
		if take == 0 {
			continue
		}
		// Evict, newest first; removal indices descend so they stay
		// valid.
		evict := victims[:take]
		slices.Sort(evict)
		for k := len(evict) - 1; k >= 0; k-- {
			ri := evict[k]
			r := (*run)[ri]
			*run = append((*run)[:ri], (*run)[ri+1:]...)
			requeue(r, t)
		}
		return ni
	}
	return -1
}
