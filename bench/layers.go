package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/bo"
)

// layerInput is what a traced run measured, from which emit derives
// the per-layer metrics. Layer times are reported as shares of wall,
// the summed duration of the traced sessions (or round trips), so
// every layer's metrics exist on every workload — a layer a workload
// never enters reads 0.
type layerInput struct {
	spans []span
	wall  time.Duration
	// steps counts decisions (tuning) or round trips (service) in the
	// plain pass the runtime and wire counters cover.
	steps         int
	refit         bo.RefitStats
	journalBytes  int64
	journalTrials int
	wireBytes     int64
	// memBefore/memAfter bracket the plain (untraced) pass.
	memBefore, memAfter runtime.MemStats
	memWall             time.Duration
	// peakRSS is the process's peak RSS in MB before the traced pass,
	// whose span buffers would inflate it.
	peakRSS float64
	// overhead is how much slower the traced pass ran than the plain one.
	overhead float64
}

// coverageTolerance bounds how far the layers' self times may add up
// away from the traced wall time before the run counts as broken.
const coverageTolerance = 0.05

func (lr layerInput) emit(rep *report) {
	lt := analyze(lr.spans)
	ofWall := func(d time.Duration) float64 {
		if lr.wall <= 0 {
			return 0
		}
		return d.Seconds() / lr.wall.Seconds()
	}
	share := func(layer string) float64 { return ofWall(lt.self[layer]) }
	perStep := func(v float64) float64 {
		if lr.steps == 0 {
			return 0
		}
		return v / float64(lr.steps)
	}
	rep.set("backend.eval_calls", float64(lt.count["backend.eval"]), "count")
	rep.set("backend.eval_share", share("backend"), "ratio")
	rep.set("forest.selections", float64(lt.count["forest.select"]), "count")
	rep.set("forest.select_share", share("forest"), "ratio")
	rep.set("gp.surrogate_share", share("gp"), "ratio")
	rep.set("gp.refit_share", ofWall(time.Duration(lr.refit.RefitSeconds*float64(time.Second))), "ratio")
	rep.set("gp.hyper_refits", float64(lr.refit.HyperRefits), "count")
	rep.set("gp.extends", float64(lr.refit.Extends), "count")
	rep.set("gp.posterior_refits", float64(lr.refit.PosteriorRefits), "count")
	rep.set("bo.acquire_share", share("bo"), "ratio")
	rep.set("core.propose_calls", float64(lt.count["core.propose"]+lt.count["bo.acquire"]), "count")
	rep.set("core.share", share("core"), "ratio")
	rep.set("tuners.drive_self_share", share("tuners"), "ratio")
	bpt := 0.0
	if lr.journalTrials > 0 {
		bpt = float64(lr.journalBytes) / float64(lr.journalTrials)
	}
	rep.set("journal.bytes_per_trial", bpt, "bytes")
	rep.set("server.handler_share", share("server"), "ratio")
	rep.set("server.requests", float64(lt.count["server.propose"]+lt.count["server.observe"]), "count")
	rep.set("wire.net_share", share("wire"), "ratio")
	rep.set("wire.bytes_per_rt", perStep(float64(lr.wireBytes)), "bytes")
	rep.set("runtime.alloc_kb_per_step", perStep(float64(lr.memAfter.TotalAlloc-lr.memBefore.TotalAlloc)/1024), "KB")
	rep.set("runtime.gc_count", float64(lr.memAfter.NumGC-lr.memBefore.NumGC), "count")
	rep.set("runtime.peak_rss_mb", lr.peakRSS, "MB")
	rep.set("runtime.gc_pause_share", float64(lr.memAfter.PauseTotalNs-lr.memBefore.PauseTotalNs)/math.Max(float64(lr.memWall), 1), "ratio")
	rep.set("trace_overhead", lr.overhead, "ratio")

	var self time.Duration
	for _, d := range lt.self {
		self += d
	}
	coverage := ofWall(self)
	rep.set("trace.coverage", coverage, "ratio")
	rep.check(math.Abs(coverage-1) <= coverageTolerance,
		"layer self times add up to %.3f of the traced wall time, outside 1±%.2f", coverage, coverageTolerance)
}

// prediction is one layer share a workload was built to isolate.
type prediction struct {
	metrics []string // summed
	op      string   // ">=", "<" or "=="
	value   float64
}

// predictions is the README's prediction map in checkable form. A
// traced run prints how each came out; they are not correctness
// checks, because an optimisation is supposed to move them.
var predictions = map[string][]prediction{
	"spark-cold": {
		{[]string{"forest.select_share"}, ">=", 0.30},
		{[]string{"backend.eval_share"}, "<", 0.02},
	},
	"spark-warm-long": {
		{[]string{"forest.select_share"}, "==", 0},
		{[]string{"gp.surrogate_share", "bo.acquire_share"}, ">=", 0.80},
		{[]string{"backend.eval_share"}, "<", 0.02},
	},
	"clustersim-cold": {
		{[]string{"backend.eval_share"}, ">=", 0.25},
	},
	"service-wire": {
		{[]string{"forest.select_share"}, "==", 0},
		{[]string{"gp.surrogate_share"}, "==", 0},
		{[]string{"bo.acquire_share"}, "==", 0},
		{[]string{"backend.eval_share"}, "==", 0},
	},
}

// predictionNotes renders the workload's predictions against the
// measured per-layer metrics.
func predictionNotes(workload string, metrics map[string]metric) []string {
	var notes []string
	for _, p := range predictions[workload] {
		var v float64
		for _, m := range p.metrics {
			v += metrics[m].Value
		}
		var held bool
		switch p.op {
		case ">=":
			held = v >= p.value
		case "<":
			held = v < p.value
		case "==":
			held = v == p.value
		}
		verdict := "holds"
		if !held {
			verdict = "DOES NOT HOLD"
		}
		notes = append(notes, fmt.Sprintf("prediction %s %s %g: measured %.4f, %s",
			strings.Join(p.metrics, "+"), p.op, p.value, v, verdict))
	}
	sort.Strings(notes)
	return notes
}
