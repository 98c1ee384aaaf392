// Package clustersim is the second tuning backend: a deterministic
// simulator of a multi-tenant cluster scheduler. Jobs made of pods
// arrive on a fixed trace and are placed onto nodes by a configurable
// scheduling policy, run as a fixed-period scheduling loop (the loop
// period is itself a tunable) that jumps over idle ticks, where no
// placement can change until the next arrival, completion, backoff
// expiry or fault. The tunables are the policy's knobs — node-scoring
// weights, bin-packing threshold, preemption policy, eviction backoff,
// queue discipline and resource overcommit — and the objective is the
// makespan or the p95 job latency of the trace.
//
// The package exists to prove the backend seam: it shares nothing
// with internal/sparksim except the contracts in internal/backend
// (Harness, EvalSpec, Fidelity, FaultPlan), and everything above the
// seam — tuners, sessions, journals, the server, the CLI — drives it
// unchanged.
package clustersim

import "repro/internal/conf"

// Parameter names of the cluster-scheduler configuration space.
const (
	CPUScoreWeight    = "sched.score.cpuWeight"
	MemScoreWeight    = "sched.score.memWeight"
	ScoringPolicy     = "sched.score.policy"
	BinpackThreshold  = "sched.binpack.threshold"
	PreemptionEnabled = "sched.preemption.enabled"
	PreemptionGrace   = "sched.preemption.gracePeriod"
	MaxPreemptions    = "sched.preemption.maxPerJob"
	EvictionBackoff   = "sched.eviction.backoff"
	BackoffFactor     = "sched.eviction.backoffFactor"
	QueuePolicy       = "sched.queue.policy"
	OvercommitCPU     = "sched.overcommit.cpu"
	OvercommitMem     = "sched.overcommit.memory"
	SchedInterval     = "sched.loop.interval"
)

// Space returns the 13-parameter cluster-scheduler configuration
// space. Collinearity groups mirror the knobs that only act jointly:
// the two scoring weights, the preemption trio, the backoff pair and
// the overcommit pair.
func Space() *conf.Space {
	return conf.MustNewSpace(Params())
}

// Params returns the raw definitions behind Space, exposed so tests
// and tools can inspect them.
func Params() []conf.Param {
	return []conf.Param{
		{Name: CPUScoreWeight, Kind: conf.Float, Min: 0, Max: 1, Default: 0.5, Group: "score.weights",
			Desc: "Weight of CPU headroom in node scoring"},
		{Name: MemScoreWeight, Kind: conf.Float, Min: 0, Max: 1, Default: 0.5, Group: "score.weights",
			Desc: "Weight of memory headroom in node scoring"},
		{Name: ScoringPolicy, Kind: conf.Categorical, Choices: []string{"spread", "binpack", "balanced"}, Default: 0,
			Desc: "Node preference: emptiest (spread), fullest (binpack) or imbalance-minimizing"},
		{Name: BinpackThreshold, Kind: conf.Float, Min: 0.5, Max: 0.99, Default: 0.8,
			Desc: "Utilization past which a binpacked node stops attracting pods"},
		{Name: PreemptionEnabled, Kind: conf.Bool, Default: 0, Group: "preemption",
			Desc: "Allow high-priority pods to evict low-priority ones"},
		{Name: PreemptionGrace, Kind: conf.Float, Min: 0, Max: 60, Default: 30, Unit: "s", Group: "preemption",
			Desc: "Grace period an evicted pod occupies its slot before the preemptor starts"},
		{Name: MaxPreemptions, Kind: conf.Int, Min: 0, Max: 8, Default: 2, Group: "preemption",
			Desc: "Eviction budget per pending high-priority job"},
		{Name: EvictionBackoff, Kind: conf.Float, Min: 1, Max: 60, Log: true, Default: 10, Unit: "s", Group: "backoff",
			Desc: "Requeue delay after an eviction or failed placement"},
		{Name: BackoffFactor, Kind: conf.Float, Min: 1, Max: 4, Default: 2, Group: "backoff",
			Desc: "Backoff multiplier per repeated eviction of the same pod"},
		{Name: QueuePolicy, Kind: conf.Categorical, Choices: []string{"fifo", "sjf", "priority"}, Default: 0,
			Desc: "Pending-queue order: arrival, shortest-job-first or priority class"},
		{Name: OvercommitCPU, Kind: conf.Float, Min: 1, Max: 2, Default: 1,
			Desc: "CPU oversubscription ratio (pods slow down proportionally past 1.0)"},
		{Name: OvercommitMem, Kind: conf.Float, Min: 1, Max: 1.5, Default: 1,
			Desc: "Memory oversubscription ratio (OOM risk past physical capacity)"},
		{Name: SchedInterval, Kind: conf.Float, Min: 0.1, Max: 10, Log: true, Default: 1, Unit: "s",
			Desc: "Scheduling-loop period: placement latency vs scheduler overhead"},
	}
}
