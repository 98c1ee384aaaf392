// Other systems: ROBOTune on a non-Spark target. §4 notes the
// framework is modular — applying it to another system only needs a
// configuration space and an objective. This example tunes a
// PostgreSQL-like key-value store model defined entirely here: the
// space comes from a JSON definition (conf.ParseSpace) and the
// objective is a plain Go function wrapped in tuners.FuncObjective.
//
//	go run ./examples/othersystem
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/tuners"
)

// spaceJSON defines a small database-flavored configuration space.
const spaceJSON = `{
  "system": "kvstore",
  "params": [
    {"name": "buffer_pool_mb", "type": "int", "min": 64, "max": 16384,
     "log": true, "default": 128, "unit": "MB"},
    {"name": "wal_sync", "type": "categorical",
     "choices": ["off", "normal", "paranoid"], "default": "normal"},
    {"name": "compaction_threads", "type": "int", "min": 1, "max": 16, "default": 2},
    {"name": "bloom_bits_per_key", "type": "int", "min": 2, "max": 20, "default": 10},
    {"name": "compress_sstables", "type": "bool", "default": true},
    {"name": "memtable_mb", "type": "int", "min": 16, "max": 2048, "log": true, "default": 64, "unit": "MB"},
    {"name": "checkpoint_interval_s", "type": "int", "min": 5, "max": 600, "log": true, "default": 60, "unit": "s"},
    {"name": "read_ahead_kb", "type": "int", "min": 0, "max": 1024, "default": 128, "unit": "KB"}
  ]
}`

// benchmarkSeconds is the pretend benchmark: the time to run a fixed
// mixed read/write workload against the store under configuration c.
// The shape is multi-modal with interactions, like real storage
// engines: cache hit rate saturates, compaction threads trade off
// against write stalls, paranoid WAL syncing is slow but "off" risks
// recovery work.
func benchmarkSeconds(c conf.Config) (float64, bool) {
	buffer := float64(c.Int("buffer_pool_mb"))
	memtable := float64(c.Int("memtable_mb"))
	threads := float64(c.Int("compaction_threads"))
	bloom := float64(c.Int("bloom_bits_per_key"))
	checkpoint := float64(c.Int("checkpoint_interval_s"))
	readAhead := float64(c.Int("read_ahead_kb"))

	// Reads: cache misses fall off with buffer pool size; bloom
	// filters trim useless SSTable probes up to a point.
	hitRate := 1 - math.Exp(-buffer/2048)
	missCost := (1 - hitRate) * 120
	probeCost := 25 * math.Exp(-bloom/6)
	readSec := 30 + missCost + probeCost - 4*math.Log1p(readAhead/64)

	// Writes: a bigger memtable batches better until flushes stall
	// compaction; more threads absorb that, but steal CPU from reads.
	flushRate := 2048 / memtable
	stall := math.Max(0, flushRate-threads) * 6
	cpuSteal := threads * 1.5
	writeSec := 40 + stall + cpuSteal

	switch c.Choice("wal_sync") {
	case "paranoid":
		writeSec *= 1.8
	case "off":
		writeSec *= 0.9
		readSec += 10 // recovery replays on crash-restart cycles
	}
	// Frequent checkpoints add overhead; rare ones grow recovery work.
	writeSec += 120/checkpoint + checkpoint/60

	total := readSec + writeSec
	// The buffer pool and memtable share RAM: oversubscription fails.
	if buffer+memtable > 17000 {
		return total, false
	}
	return total, true
}

func main() {
	space, err := conf.ParseSpace([]byte(spaceJSON))
	if err != nil {
		log.Fatal(err)
	}
	obj := &tuners.FuncObjective{
		Fn:       benchmarkSeconds,
		Cap:      480,
		Workload: "kvstore-mixed",
		Dataset:  "100GB",
	}

	rt := core.New(nil, core.Options{GenericSamples: 60})
	res := rt.Run(tuners.NewSession(obj, space, tuners.Request{Budget: 60, Seed: 7}))
	if !res.Found {
		log.Fatal("nothing found")
	}

	defSec, _ := benchmarkSeconds(space.Default())
	fmt.Printf("system default : %6.1f s\n", defSec)
	fmt.Printf("tuned          : %6.1f s (%.2fx speedup, %d evaluations)\n",
		res.BestSeconds, defSec/res.BestSeconds, res.Evals+res.SelectionEvals)
	fmt.Println("\nimportant parameters found:")
	for _, p := range res.SelectedParams {
		param, _ := space.Param(p)
		fmt.Printf("  %-24s = %s\n", p, param.FormatRaw(res.Best.Raw(p)))
	}
	fmt.Println("\nEverything except the JSON space and the benchmark function is")
	fmt.Println("the same ROBOTune pipeline used for Spark: LHS sampling, RF")
	fmt.Println("selection, memoization, and the GP-Hedge BO engine.")
}
