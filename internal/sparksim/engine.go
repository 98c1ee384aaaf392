package sparksim

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/backend"
	"repro/internal/conf"
)

// Outcome is the result of simulating one workload execution under a
// configuration.
type Outcome struct {
	// Seconds is the simulated wall-clock execution time. When the
	// run fails or is truncated it holds the time consumed up to that
	// point (capped at the limit by the Evaluator).
	Seconds float64
	// Completed is true when the job finished successfully.
	Completed bool
	// OOM is true when the job aborted with out-of-memory /
	// GC-overhead task failures.
	OOM bool
	// Transient is true when the run aborted on an injected transient
	// error (lost heartbeat, fetch storm): a retry of the same
	// configuration may well succeed, unlike OOM or infeasibility.
	Transient bool
	// Infeasible is true when no executor of the configured size fits
	// on the cluster (resource negotiation fails immediately).
	Infeasible bool
	// Events records notable incidents (OOM stages, heavy spills,
	// cache pressure) for diagnostics.
	Events []string
	// Breakdown holds per-stage timings when the run was started with
	// RunDetailed; nil otherwise.
	Breakdown []StageBreakdown
}

// StageBreakdown is the per-stage accounting RunDetailed collects.
type StageBreakdown struct {
	Name    string
	Seconds float64
	Tasks   int
	Waves   int
	// PerTask decomposition, in seconds per task.
	ComputeSec float64 // CPU including GC and codec/serde work
	DiskSec    float64
	NetSec     float64
	// SpillPerTaskMB is serialized bytes spilled per task (0 = fits).
	SpillPerTaskMB float64
	// CacheMissSec is stage-level time servicing cache misses.
	CacheMissSec float64
}

// codec models a compression codec's ratio and per-core throughput.
type codec struct {
	ratio             float64 // compressed size / raw size
	compMBps, decMBps float64
}

var codecs = map[string]codec{
	"lz4":    {ratio: 0.50, compMBps: 420, decMBps: 850},
	"lzf":    {ratio: 0.55, compMBps: 300, decMBps: 620},
	"snappy": {ratio: 0.52, compMBps: 460, decMBps: 900},
	"zstd":   {ratio: 0.36, compMBps: 130, decMBps: 420},
}

// serde models a serializer's CPU cost and serialized-size factor.
// In-memory (deserialized) object sizes do not depend on the
// serializer; shuffle/spill/broadcast bytes do.
type serde struct {
	serMBps, desMBps float64 // per-core throughput
	sizeFactor       float64 // serialized bytes / java-serialized bytes
}

var serdes = map[string]serde{
	"java": {serMBps: 55, desMBps: 75, sizeFactor: 1.00},
	"kryo": {serMBps: 240, desMBps: 300, sizeFactor: 0.65},
}

// oomHeadroom: a task whose unspillable working set exceeds this
// multiple of its execution-memory share dies with OOM / "GC overhead
// limit exceeded" instead of spilling through.
const oomHeadroom = 4.0

// gcThrash multiplies recompute cost of evicted MEMORY_ONLY cache
// partitions: lineage re-execution allocates and garbage-collects the
// whole partition each pass.
const gcThrash = 3.0

// perTaskLaunchSec is the scheduler+deserialization overhead per task.
const perTaskLaunchSec = 0.004

// cacheEntry tracks a materialized RDD in the simulated block store.
type cacheEntry struct {
	demandMB     float64 // bytes the RDD wants resident
	fraction     float64 // fraction actually resident cluster-wide
	rebuildSec   float64 // wall time to rebuild the RDD from its parent
	partitions   int
	diskFallback bool   // MEMORY_AND_DISK: misses read disk, no recompute
	parent       string // parent cached RDD for lineage cascades
	inputMB      float64
}

// effCodec returns the codec adjusted for the configured LZ4 block
// size: larger blocks improve the ratio slightly at a small
// throughput cost (only the lz4 codec reads this knob).
func effCodec(c conf.Config, base codec) codec {
	if c.Choice(conf.IOCompressionCodec) != "lz4" {
		return base
	}
	blockKB := float64(c.Int(conf.LZ4BlockSize))
	shift := math.Log2(blockKB/32) / 4 // -1..+1 over 16..512 KB
	base.ratio *= 1 - 0.03*shift
	base.compMBps *= 1 - 0.05*math.Abs(shift)
	return base
}

// engine carries per-run state.
type engine struct {
	cl    Cluster
	cfg   conf.Config
	ex    Executors
	cache map[string]*cacheEntry
	// derived config knobs
	ser         serde
	cdc         codec
	parallelism int
	maxPartMB   float64
	out         Outcome
	// collect enables per-stage breakdown accounting.
	collect bool
}

// Run simulates one execution of the workload under the configuration
// on the cluster. rng drives observation noise; pass a seeded source
// for reproducibility. capSeconds truncates runs that exceed it
// (pass +Inf for no cap — the Evaluator applies the paper's 480 s).
func Run(cl Cluster, w Workload, c conf.Config, rng *rand.Rand, capSeconds float64) Outcome {
	return run(cl, w, c, rng, capSeconds, false, backend.FaultPlan{}, nil)
}

// RunDetailed is Run with per-stage accounting: the returned
// Outcome.Breakdown lists every executed stage's duration and cost
// decomposition (robosim's -stages flag).
func RunDetailed(cl Cluster, w Workload, c conf.Config, rng *rand.Rand, capSeconds float64) Outcome {
	return run(cl, w, c, rng, capSeconds, true, backend.FaultPlan{}, nil)
}

// RunWithFaults is Run with fault injection: the plan's incidents are
// drawn from frng (a dedicated stream, so the run's noise sequence is
// untouched) and applied at stage boundaries. A zero plan or nil frng
// reduces to Run exactly.
func RunWithFaults(cl Cluster, w Workload, c conf.Config, rng *rand.Rand, capSeconds float64, plan backend.FaultPlan, frng *rand.Rand) Outcome {
	return run(cl, w, c, rng, capSeconds, false, plan, frng)
}

func run(cl Cluster, w Workload, c conf.Config, rng *rand.Rand, capSeconds float64, collect bool, plan backend.FaultPlan, frng *rand.Rand) Outcome {
	ex, ok := PackExecutors(cl, c)
	if !ok {
		return Outcome{Infeasible: true, Seconds: 15, Events: []string{"resource negotiation failed: executor does not fit"}}
	}
	e := &engine{
		cl:          cl,
		cfg:         c,
		ex:          ex,
		cache:       make(map[string]*cacheEntry),
		ser:         serdes[c.Choice(conf.Serializer)],
		cdc:         effCodec(c, codecs[c.Choice(conf.IOCompressionCodec)]),
		parallelism: int(c.Int(conf.DefaultParallelism)),
		maxPartMB:   float64(c.Int(conf.MaxPartitionBytes)),
		collect:     collect,
	}
	if e.ser.serMBps == 0 {
		panic(fmt.Sprintf("sparksim: unknown serializer %q", c.Choice(conf.Serializer)))
	}
	if e.cdc.compMBps == 0 {
		panic(fmt.Sprintf("sparksim: unknown codec %q", c.Choice(conf.IOCompressionCodec)))
	}

	var fs faultSchedule
	if plan.Enabled() && frng != nil {
		fs = scheduleFaults(plan, frng, len(w.Stages))
	}

	total := 2.0 // app submission, driver startup, executor registration
	for i := range w.Stages {
		st := &w.Stages[i]
		sec, failed := e.stageTime(st)
		// Per-stage noise models run-to-run variance of a shared
		// cluster (§2.2: contention and noise on network/storage).
		sec *= math.Exp(rng.NormFloat64() * 0.035)
		if fs.active {
			if m := fs.straggler[i]; m > 1 {
				sec *= m
				e.out.Events = append(e.out.Events,
					fmt.Sprintf("%s: fault: straggler amplification x%.1f", st.Name, m))
			}
			if i == fs.execLossStage && e.ex.Count > 1 {
				// One executor dies mid-stage: its in-flight partitions
				// are recomputed (~one executor's share of the stage),
				// and the remaining stages run on fewer slots.
				sec *= 1 + 1.5/float64(e.ex.Count)
				e.loseExecutor()
				e.out.Events = append(e.out.Events,
					fmt.Sprintf("%s: fault: executor lost (%d remain)", st.Name, e.ex.Count))
			}
		}
		total += sec
		if failed {
			e.out.OOM = true
			e.out.Seconds = total
			return e.out
		}
		if fs.active && i == fs.oomStage {
			// Spurious OOM: co-tenant memory pressure kills a task past
			// spark.task.maxFailures. Indistinguishable from a
			// config-caused OOM, so not flagged transient.
			e.out.OOM = true
			e.out.Seconds = total
			e.out.Events = append(e.out.Events,
				fmt.Sprintf("%s: fault: spurious OOM kill", st.Name))
			return e.out
		}
		if fs.active && i == fs.transientStage {
			e.out.Transient = true
			e.out.Seconds = total
			e.out.Events = append(e.out.Events,
				fmt.Sprintf("%s: fault: transient failure (lost heartbeat)", st.Name))
			return e.out
		}
		if total > capSeconds {
			e.out.Seconds = total
			e.out.Events = append(e.out.Events, "truncated: exceeded evaluation cap")
			return e.out
		}
	}
	// Rare cluster-level contention spike.
	if rng.Float64() < 0.015 {
		total *= 1.15 + 0.25*rng.Float64()
	}
	e.out.Seconds = total
	e.out.Completed = total <= capSeconds
	return e.out
}

// loseExecutor removes one executor from the layout (fault injection:
// node or JVM loss); the remaining stages see fewer slots and
// per-node contention recomputed over the survivors.
func (e *engine) loseExecutor() {
	if e.ex.Count <= 1 {
		return
	}
	e.ex.Count--
	e.ex.TotalSlots = e.ex.Count * e.ex.SlotsEach
	e.ex.PerNode = (e.ex.Count + e.cl.Workers - 1) / e.cl.Workers
}

// stageTime computes the simulated duration of one stage and whether
// it aborted the job.
func (e *engine) stageTime(st *Stage) (float64, bool) {
	numTasks := e.taskCount(st)
	partMB := st.InputMB / float64(numTasks)
	wsMB := partMB * st.ExpandFactor

	// --- Memory accounting --------------------------------------------------
	// Execution memory per task: the execution region plus whatever
	// storage space the resident cache is not using (unified memory
	// borrowing), divided by the executor's concurrent tasks, plus
	// off-heap.
	cacheResidentPerExec := e.cacheResidentMB() / float64(e.ex.Count)
	storageFree := math.Max(0, e.ex.StorageMB-cacheResidentPerExec)
	perTaskExecMB := (e.ex.ExecutionMB + storageFree + e.ex.OffHeapMB) / float64(e.ex.SlotsEach)
	if perTaskExecMB < 8 {
		perTaskExecMB = 8
	}

	// OOM / GC-overhead death: the unspillable share of the working
	// set (hash structures, graph adjacency arrays, sort runs pinned
	// by the operator) exceeds any headroom. Retried tasks burn time
	// and then abort the job (spark.task.maxFailures).
	if wsMB*st.MemHungry > oomHeadroom*perTaskExecMB {
		retries := float64(e.cfg.Int(conf.TaskMaxFailures))
		attempt := partMB * st.CostFactor / e.cl.CoreSpeedMBps * 1.5
		e.out.Events = append(e.out.Events,
			fmt.Sprintf("%s: OOM (unspillable %.0fMB vs %.0fMB execution share)",
				st.Name, wsMB*st.MemHungry, perTaskExecMB))
		return 2 + attempt*retries, true
	}

	// --- Per-task cost components -------------------------------------------
	coreSec := partMB * st.CostFactor / e.cl.CoreSpeedMBps
	var diskMB, netMB, extraCPU, stageExtraSec float64

	// GC pressure: utilization of the task's memory share; very large
	// heaps pay full-GC pauses; Kryo reference tracking adds a little.
	util := wsMB * (st.MemHungry + st.SpillFrac) / perTaskExecMB
	gc := 0.03
	if util > 0.7 {
		gc += 0.30 * math.Min(1, (util-0.7)/1.5)
	}
	if e.ex.HeapMB > 98304 { // >96 GB heaps: long full-GC pauses
		gc += 0.15 * (e.ex.HeapMB - 98304) / 98304
	}
	// Very high memory.fraction starves the JVM's unmanaged region
	// (user objects, netty buffers): GC churn rises steeply.
	if frac := e.cfg.Float(conf.MemoryFraction); frac > 0.75 {
		gc += 2.0 * (frac - 0.75)
	}
	if e.cfg.Choice(conf.Serializer) == "kryo" {
		if e.cfg.Bool(conf.KryoReferenceTracking) {
			gc += 0.008
		}
		// Undersized Kryo buffers resize while serializing large
		// records; tiny max buffers force stream flushes.
		bufKB := float64(e.cfg.Int(conf.KryoBuffer))
		extraCPU += 0.003 * math.Max(0, math.Log2(64/bufKB))
		maxMB := float64(e.cfg.Int(conf.KryoBufferMax))
		extraCPU += 0.002 * math.Max(0, math.Log2(32/maxMB))
	}
	// A long periodic-GC interval lets weak references from old
	// stages pile up in long jobs (slightly more collection work).
	gc += 0.004 * math.Min(2, float64(e.cfg.Int(conf.PeriodicGCInterval))/60)
	coreSec *= 1 + gc

	// Spill: the spillable operator's buffer demand beyond the
	// execution share streams through disk, possibly in multiple
	// merge passes. Streaming map stages have tiny operator buffers.
	opMB := wsMB * (st.MemHungry + st.SpillFrac)
	if opMB > perTaskExecMB {
		spillMB := (opMB - perTaskExecMB) / st.ExpandFactor * e.ser.sizeFactor
		passes := math.Min(8, opMB/perTaskExecMB-1)
		bytes := spillMB * (1 + passes) // write once + re-read per pass
		if e.cfg.Bool(conf.ShuffleSpillCompress) {
			extraCPU += bytes / e.cdc.compMBps / 2
			bytes *= e.cdc.ratio
		}
		extraCPU += spillMB / e.ser.serMBps // re-serialization
		diskMB += bytes
		if spillMB > partMB {
			e.out.Events = append(e.out.Events,
				fmt.Sprintf("%s: heavy spill (%.0fMB per task)", st.Name, spillMB))
		}
	}

	// Input-side IO.
	switch st.Source {
	case FromHDFS:
		diskMB += partMB // local HDFS read
	case FromShuffle:
		// Shuffle read: transfer + decompress + deserialize.
		readMB := partMB * e.ser.sizeFactor
		if e.cfg.Bool(conf.ShuffleCompress) {
			extraCPU += readMB * e.cdc.ratio / e.cdc.decMBps
			readMB *= e.cdc.ratio
		}
		extraCPU += partMB * e.ser.sizeFactor / e.ser.desMBps
		remote := float64(e.cl.Workers-1) / float64(e.cl.Workers)
		netMB += readMB * remote
		diskMB += readMB * (1 - remote) // local fetches hit disk
		// Small in-flight windows add fetch round-trip stalls.
		inflight := float64(e.cfg.Int(conf.ReducerMaxSizeInFlight))
		extraCPU += 0.010 * math.Max(0, math.Log2(48/inflight))
		conns := float64(e.cfg.Int(conf.ShuffleIOConnections))
		extraCPU += 0.004 / conns * math.Max(1, readMB/32)
		if !e.cfg.Bool(conf.ShuffleIODirectBufs) {
			extraCPU += readMB / 2500 // extra copy through heap buffers
		}
		// Transient fetch failures: a busy cluster drops ~1% of
		// fetches; each retry waits spark.shuffle.io.retryWait, and a
		// single-retry budget risks a full block re-request.
		retryWait := float64(e.cfg.Int(conf.ShuffleIORetryWait)) / 1000
		stageExtraSec += 0.01 * retryWait
		if e.cfg.Int(conf.ShuffleIOMaxRetries) < 2 {
			stageExtraSec += 0.02 * st.InputMB * e.ser.sizeFactor / e.cl.NetMBps
		}
		// Aggressively low network timeouts abort slow fetches and
		// force re-requests.
		if timeout := float64(e.cfg.Int(conf.NetworkTimeout)); timeout < 60000 {
			stageExtraSec += (60000 - timeout) / 60000 * 1.5
		}
		// An external shuffle service isolates fetch serving from
		// executor GC pauses (slightly steadier reads) at a small
		// registration cost per stage.
		if e.cfg.Bool(conf.ShuffleServiceEnabled) {
			netMB *= 0.97
			stageExtraSec += 0.05
		}
	case FromCache:
		ce := e.cache[st.CacheKey]
		if ce == nil {
			// Reading a never-cached RDD: recompute on every access.
			ce = &cacheEntry{fraction: 0, inputMB: st.InputMB,
				rebuildSec: st.InputMB * st.CostFactor / e.cl.CoreSpeedMBps / float64(e.ex.TotalSlots)}
		}
		if e.cfg.Bool(conf.RDDCompress) {
			// Serialized+compressed cache: smaller footprint (already
			// reflected in demandMB) but every read pays CPU.
			extraCPU += partMB*e.ser.sizeFactor/e.ser.desMBps +
				partMB*e.ser.sizeFactor*e.cdc.ratio/e.cdc.decMBps
		}
		stageExtraSec += e.missCost(ce, 0)
	}

	// Output-side IO: shuffle write.
	if st.ShuffleOutMB > 0 {
		outPerTask := st.ShuffleOutMB / float64(numTasks)
		serMB := outPerTask * e.ser.sizeFactor
		extraCPU += serMB / e.ser.serMBps
		writeMB := serMB
		if e.cfg.Bool(conf.ShuffleCompress) {
			extraCPU += serMB / e.cdc.compMBps
			writeMB *= e.cdc.ratio
		}
		// Small file buffers flush more often (effective bandwidth
		// loss); the sort path costs extra CPU unless bypassed.
		bufKB := float64(e.cfg.Int(conf.ShuffleFileBuffer))
		ioEff := math.Min(1, 0.75+0.25*math.Log2(bufKB/16+1)/5)
		diskMB += writeMB / ioEff
		if e.parallelism > int(e.cfg.Int(conf.ShuffleBypassThreshold)) {
			extraCPU += serMB / 900 // sort-based merge CPU
		}
		initBuf := float64(e.cfg.Int(conf.ShuffleSortInitBuffer))
		extraCPU += 0.002 * math.Max(0, math.Log2(4096/initBuf)) * math.Max(1, serMB/64)
	}
	if st.WriteHDFSMB > 0 {
		diskMB += st.WriteHDFSMB / float64(numTasks) * 1.2 // replication share
	}

	// Broadcast: torrent distribution to every executor, once per stage.
	var bcastSec float64
	if st.BroadcastMB > 0 {
		b := st.BroadcastMB * e.ser.sizeFactor
		if e.cfg.Bool(conf.BroadcastCompress) {
			bcastSec += b / e.cdc.compMBps
			b *= e.cdc.ratio
		}
		blocks := math.Ceil(b / float64(e.cfg.Int(conf.BroadcastBlockSize)))
		bcastSec += b/e.cl.NetMBps*math.Log2(float64(e.cl.Workers)+1) + blocks*0.002
	}

	// --- Assemble stage time --------------------------------------------
	// Disk and NIC are shared by the tasks actually running
	// concurrently on a node (a stage smaller than the cluster leaves
	// slots idle and contends less).
	tasksPerNode := math.Min(
		float64(e.ex.PerNode*e.ex.SlotsEach),
		math.Ceil(float64(numTasks)/float64(e.cl.Workers)))
	if tasksPerNode < 1 {
		tasksPerNode = 1
	}
	// Memory-mapping very small blocks adds page-table churn on reads.
	if thMB := float64(e.cfg.Int(conf.MemoryMapThreshold)); thMB < 2 && diskMB > 0 {
		extraCPU += 0.004 * (2 - thMB)
	}
	diskShare := e.cl.DiskMBps / tasksPerNode
	netShare := e.cl.NetMBps / tasksPerNode
	taskSec := coreSec + extraCPU + diskMB/diskShare + netMB/netShare

	waves := math.Ceil(float64(numTasks) / float64(e.ex.TotalSlots))
	// Straggler tail on the last wave; speculation claws most of it
	// back at a small resource cost.
	skewTail := taskSec * st.Skew
	if e.cfg.Bool(conf.Speculation) {
		mult := e.cfg.Float(conf.SpeculationMultiplier)
		q := e.cfg.Float(conf.SpeculationQuantile)
		save := 0.65 * math.Min(1, 2/mult) * (1 - math.Abs(q-0.75))
		// Checking too rarely delays re-launches; checking constantly
		// burns driver time.
		intervalS := float64(e.cfg.Int(conf.SpeculationInterval)) / 1000
		save *= 1 - math.Min(0.3, intervalS/3)
		skewTail *= 1 - math.Max(0.1, save)
		taskSec *= 1.02 + 0.002/math.Max(intervalS, 0.01)*0.1 // duplicate + polling overhead
	}

	// Scheduling: task launch through the driver, locality waits when
	// the stage over-subscribes the cluster, revive-interval latency
	// per wave.
	driverCores := math.Min(float64(e.cfg.Int(conf.DriverCores)), 4)
	launch := float64(numTasks) * perTaskLaunchSec / driverCores / math.Max(1, float64(e.ex.TotalSlots)/8)
	// A cramped driver heap slows task bookkeeping and result
	// aggregation; small RPC frames fragment large task descriptors.
	if driverMB := float64(e.cfg.Int(conf.DriverMemory)); driverMB < 2048 {
		launch *= 1 + (2048-driverMB)/2048
	}
	launch *= 1 + 0.05*math.Max(0, math.Log2(128/float64(e.cfg.Int(conf.RPCMessageMaxSize))))/2
	locality := 0.0
	if st.Source == FromHDFS && waves > 1 {
		locality = float64(e.cfg.Int(conf.LocalityWait)) / 1000 * 0.4 * math.Min(waves, 4)
	}
	revive := float64(e.cfg.Int(conf.SchedulerReviveInt)) / 1000 * 0.45 * waves

	stageSec := waves*taskSec + skewTail + launch + locality + revive + bcastSec + stageExtraSec + 0.15

	if e.collect {
		spillSer := 0.0
		if opMB > perTaskExecMB {
			spillSer = (opMB - perTaskExecMB) / st.ExpandFactor * e.ser.sizeFactor
		}
		e.out.Breakdown = append(e.out.Breakdown, StageBreakdown{
			Name:           st.Name,
			Seconds:        stageSec,
			Tasks:          numTasks,
			Waves:          int(waves),
			ComputeSec:     coreSec + extraCPU,
			DiskSec:        diskMB / diskShare,
			NetSec:         netMB / netShare,
			SpillPerTaskMB: spillSer,
			CacheMissSec:   stageExtraSec,
		})
	}

	// Register cache output after the stage that materializes it.
	// The rebuild cost recorded is the stage's own cost, excluding
	// time spent servicing other RDDs' misses (no compounding).
	if st.CacheOutMB > 0 {
		e.registerCache(st, numTasks, stageSec-stageExtraSec)
	}
	return stageSec, false
}

// missCost returns the stage-level seconds spent servicing cache
// misses of entry: MEMORY_AND_DISK reads the missing fraction back
// from disk; MEMORY_ONLY recomputes it from lineage, cascading
// through evicted ancestors (§5.3: "configurations that cause RDD
// evictions take significantly more time").
func (e *engine) missCost(ce *cacheEntry, depth int) float64 {
	if ce == nil || depth > 16 {
		return 0
	}
	miss := 1 - ce.fraction
	if miss <= 0 {
		return 0
	}
	if ce.diskFallback {
		// Serialized spill files on local disks, all nodes in parallel.
		bytes := miss * ce.inputMB * e.ser.sizeFactor
		return bytes / (e.cl.DiskMBps * float64(e.cl.Workers))
	}
	parentCost := e.missCost(e.cache[ce.parent], depth+1)
	return miss * (ce.rebuildSec*gcThrash + parentCost)
}

// taskCount applies Spark's partitioning rules for the stage source.
func (e *engine) taskCount(st *Stage) int {
	switch st.Source {
	case FromHDFS:
		n := int(math.Ceil(st.InputMB / e.maxPartMB))
		if n < 1 {
			n = 1
		}
		return n
	case FromCache:
		if ce := e.cache[st.CacheKey]; ce != nil && ce.partitions > 0 {
			return ce.partitions
		}
		n := int(math.Ceil(st.InputMB / e.maxPartMB))
		if n < 1 {
			n = 1
		}
		return n
	default: // FromShuffle
		if e.parallelism < 1 {
			return 1
		}
		return e.parallelism
	}
}

// registerCache materializes an RDD into the simulated block store
// and resolves cluster-wide LRU eviction across all cached RDDs.
func (e *engine) registerCache(st *Stage, partitions int, buildSec float64) {
	demand := st.CacheOutMB
	if e.cfg.Bool(conf.RDDCompress) {
		// Serialized + compressed storage shrinks the footprint.
		demand = st.CacheOutMB / st.ExpandFactor * e.ser.sizeFactor * e.cdc.ratio
	}
	e.cache[st.CacheOutKey] = &cacheEntry{
		demandMB:     demand,
		rebuildSec:   buildSec,
		partitions:   partitions,
		diskFallback: st.CacheDiskFallback,
		parent:       st.CacheKey,
		inputMB:      st.CacheOutMB / st.ExpandFactor,
	}
	// Storage available cluster-wide: the guaranteed storage region
	// plus half the execution region (the long-run equilibrium of
	// unified-memory borrowing under execution pressure).
	perExec := e.ex.StorageMB + 0.6*e.ex.ExecutionMB
	available := perExec * float64(e.ex.Count)
	var totalDemand float64
	for _, ce := range e.cache {
		totalDemand += ce.demandMB
	}
	frac := 1.0
	if totalDemand > available {
		frac = available / totalDemand
	}
	for _, ce := range e.cache {
		ce.fraction = frac
	}
	if frac < 0.999 {
		e.out.Events = append(e.out.Events,
			fmt.Sprintf("%s: cache pressure, %.0f%% of cached data resident", st.Name, frac*100))
	}
}

// cacheResidentMB returns the cluster-wide bytes currently held by
// the block store.
func (e *engine) cacheResidentMB() float64 {
	var s float64
	for _, ce := range e.cache {
		s += ce.demandMB * ce.fraction
	}
	return s
}
