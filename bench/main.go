// Command bench is the repository's performance benchmark. Four
// workloads each stress a different layer of the tuner stack — the
// Random-Forest selection sweep, the GP/acquisition loop, the cluster
// simulator and the robotuned wire path — and report end-to-end
// metrics a user sees plus, in a traced run, the share of time each
// layer took. Every layer is timed from outside, by this package's
// own wrappers around the public calls into it.
//
// Run it from the repository root through bench/run.sh, which builds
// it with the build cache kept under .bench_build:
//
//	sh bench/run.sh -seed 1 -out result.json          # every workload, each in a child process
//	sh bench/run.sh --workload spark-cold --seed 1 --seconds 15 --trace 0
//	sh bench/run.sh -trace 1 -spans spans.jsonl        # per-layer breakdown
//	sh bench/run.sh -compare base.json change.json     # verdicts against BENCHMARK.json bounds
//
// A single-workload run ends with one JSON line: correct, attempted,
// failed and metrics. See README.md for the workloads, metrics and
// which layer should move which metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// workloadNames lists the workloads in the order an all-workload run
// executes them.
var workloadNames = []string{"spark-cold", "spark-warm-long", "clustersim-cold", "service-wire"}

// runConfig is what one workload run is asked to do.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	spans   string // traced run: write the spans here as JSON lines
	workdir string // journals and scratch files, removed at the end
}

func runWorkload(name string, cfg runConfig) (*report, error) {
	switch name {
	case "spark-cold":
		return runTuning(sparkCold(), cfg), nil
	case "spark-warm-long":
		return runTuning(sparkWarmLong(), cfg), nil
	case "clustersim-cold":
		return runTuning(clustersimCold(), cfg), nil
	case "service-wire":
		return runService(serviceWire(), cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the JSON line a workload run ends with.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a workload run's metrics and its operations: a
// session, a round trip or a correctness check is one operation, and a
// failed one (an error, a panic, a failed check) is counted and noted.
type report struct {
	outcome
	samples map[string]int
	notes   []string
}

func newReport() *report {
	return &report{outcome: outcome{Metrics: map[string]metric{}}, samples: map[string]int{}}
}

// set records a metric. A value that is not finite cannot be written
// as JSON and means a measurement went wrong, so it fails the run.
func (r *report) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.check(false, "metric %s is not finite (%v)", name, v)
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// ops counts n operations; err, when set, is the failure of the last.
func (r *report) ops(n int, err error) {
	r.Attempted += n
	if err != nil {
		r.Failed++
		r.notes = append(r.notes, err.Error())
	}
}

func (r *report) fail(err error) { r.ops(1, err) }

func (r *report) check(ok bool, format string, args ...any) {
	if ok {
		r.ops(1, nil)
		return
	}
	r.ops(1, fmt.Errorf(format, args...))
}

// samplesPrefix starts the line that carries a run's sample counts to
// an all-workload parent.
const samplesPrefix = "samples "

// print writes the metrics one per line, the sample counts and the
// failures, then the result line.
func (r *report) print(w io.Writer, workload string) error {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%s %-28s %14.6g %s\n", workload, name, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "%s FAILED: %s\n", workload, n)
	}
	samples, err := json.Marshal(r.samples)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s%s\n", samplesPrefix, samples)
	line, err := json.Marshal(r.outcome)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+"); empty runs every workload, each in its own child process")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 15, "how long a run measures")
	trace := fs.Int("trace", 0, "1 re-runs the work under timing decorators and reports per-layer metrics instead of end-to-end ones")
	spans := fs.String("spans", "", "with -trace 1: write the spans to this JSON-lines file (one file per workload when running all)")
	out := fs.String("out", "", "all workloads: write the result file, with its environment block, here")
	runs := fs.Int("runs", 1, "all workloads: runs per workload, with seeds seed, seed+1, ...")
	compare := fs.String("compare", "", "compare two result files against the bounds in BENCHMARK.json: -compare base.json change.json")
	workdir := fs.String("workdir", ".bench_build/work", "directory for journals and scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "usage: -compare base.json change.json")
			return 2
		}
		if err := compareFiles(*compare, fs.Arg(0), stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "-trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "-seconds must be at least 1")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		spans:   *spans,
		workdir: *workdir,
	}
	if *workload == "" {
		return runAll(cfg, *runs, *out, stdout, stderr)
	}
	rep, err := runWorkload(*workload, cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if cfg.trace {
		for _, n := range predictionNotes(*workload, rep.Metrics) {
			fmt.Fprintf(stdout, "%s %s\n", *workload, n)
		}
	}
	if err := rep.print(stdout, *workload); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}
