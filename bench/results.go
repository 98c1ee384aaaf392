package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// environment is the block every result file starts with, so that rows
// measured on different commits and machines can be compared.
type environment struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Platform   string `json:"platform"`
	Commit     string `json:"commit"`
	Date       string `json:"date"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Runs       int    `json:"runs"`
}

func currentEnvironment(cfg runConfig, runs int) environment {
	return environment{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     gitCommit(),
		Date:       time.Now().UTC().Format(time.RFC3339),
		Seed:       cfg.seed,
		Seconds:    int(cfg.seconds / time.Second),
		Trace:      cfg.trace,
		Runs:       runs,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit names the checked-out commit, or "unknown" outside a git
// checkout.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runRecord is one workload run in a result file.
type runRecord struct {
	Seed uint64 `json:"seed"`
	outcome
	Samples map[string]int `json:"samples"`
}

// resultFile is what an all-workload run writes with -out and what
// -compare reads.
type resultFile struct {
	Env       environment            `json:"env"`
	Workloads map[string][]runRecord `json:"workloads"`
}

// runAll runs every workload runs times, each run in its own child
// process so that peak memory and GC state stay separate, prints every
// metric by name with its unit, and writes the result file. It fails
// when any run fails.
func runAll(cfg runConfig, runs int, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	res := resultFile{Env: currentEnvironment(cfg, runs), Workloads: map[string][]runRecord{}}
	env, _ := json.Marshal(res.Env)
	fmt.Fprintf(stdout, "env %s\n", env)
	status := 0
	for _, name := range workloadNames {
		for i := 0; i < runs; i++ {
			seed := cfg.seed + uint64(i)
			rec, err := runChild(exe, name, seed, cfg, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "%s seed %d: %v\n", name, seed, err)
				status = 1
			}
			if rec != nil {
				res.Workloads[name] = append(res.Workloads[name], *rec)
			}
		}
		printRuns(stdout, name, res.Workloads[name])
	}
	if out != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			status = 1
		}
	}
	return status
}

// runChild runs one workload in a child process and parses its result
// line and sample counts. A run that failed a check still returns its
// record, with the error.
func runChild(exe, name string, seed uint64, cfg runConfig, stderr io.Writer) (*runRecord, error) {
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	args := []string{
		"--workload", name,
		"--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(int(cfg.seconds / time.Second)),
		"--trace", trace,
		"--workdir", cfg.workdir,
	}
	if cfg.trace && cfg.spans != "" {
		ext := filepath.Ext(cfg.spans)
		args = append(args, "--spans", fmt.Sprintf("%s-%s-%d%s", strings.TrimSuffix(cfg.spans, ext), name, seed, ext))
	}
	var buf bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = &buf
	cmd.Stderr = stderr
	runErr := cmd.Run()

	rec := &runRecord{Seed: seed}
	var last string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if s, ok := strings.CutPrefix(line, samplesPrefix); ok {
			_ = json.Unmarshal([]byte(s), &rec.Samples) // diagnostic only
		} else if strings.Contains(line, "FAILED") || strings.Contains(line, "prediction") {
			fmt.Fprintln(stderr, line)
		}
		last = line
	}
	if err := json.Unmarshal([]byte(last), &rec.outcome); err != nil {
		return nil, fmt.Errorf("no result line (%v; exit: %v)", err, runErr)
	}
	if runErr != nil {
		return rec, runErr
	}
	if !rec.Correct {
		return rec, fmt.Errorf("%d of %d operations failed", rec.Failed, rec.Attempted)
	}
	return rec, nil
}

// printRuns prints each metric of a workload as the median over its
// runs, with the number of runs.
func printRuns(w io.Writer, name string, runs []runRecord) {
	values := map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		for m, v := range r.Metrics {
			values[m] = append(values[m], v.Value)
			units[m] = v.Unit
		}
	}
	names := make([]string, 0, len(values))
	for m := range values {
		names = append(names, m)
	}
	sort.Strings(names)
	for _, m := range names {
		_, med, _ := quartiles(values[m])
		fmt.Fprintf(w, "%-16s %-28s %14.6g %-6s (n=%d)\n", name, m, med, units[m], len(values[m]))
	}
}

// definitionsPath is the benchmark definition, read from the
// repository root the benchmark runs in.
const definitionsPath = "BENCHMARK.json"

// definitions is the part of BENCHMARK.json -compare needs.
type definitions struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints, for each workload and metric, both sides'
// median and quartiles, the change as a ratio of its base, and a
// verdict against the metric's bound in BENCHMARK.json.
func compareFiles(basePath, changePath string, w io.Writer) error {
	var defs definitions
	var base, change resultFile
	for _, f := range []struct {
		path string
		v    any
	}{{definitionsPath, &defs}, {basePath, &base}, {changePath, &change}} {
		if err := readJSON(f.path, f.v); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "base:   %s, %d run(s) per workload, commit %s, %s, GOMAXPROCS %d\n",
		basePath, base.Env.Runs, base.Env.Commit, base.Env.CPU, base.Env.GOMAXPROCS)
	fmt.Fprintf(w, "change: %s, %d run(s) per workload, commit %s, %s, GOMAXPROCS %d\n",
		changePath, change.Env.Runs, change.Env.Commit, change.Env.CPU, change.Env.GOMAXPROCS)
	for _, name := range workloadNames {
		b, c := base.Workloads[name], change.Workloads[name]
		if len(b) == 0 || len(c) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n%s\n", name)
		for i, d := range append(append([]metricDef(nil), defs.EndToEnd...), defs.PerLayer...) {
			bv, cv := metricValues(b, d.Name), metricValues(c, d.Name)
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			bq1, bm, bq3 := quartiles(bv)
			cq1, cm, cq3 := quartiles(cv)
			v := "-" // per-layer metrics have no bound
			if i < len(defs.EndToEnd) {
				v = verdict(d, bv, cv)
			}
			fmt.Fprintf(w, "  %-28s %-6s base %12.6g [%.6g, %.6g]  change %12.6g [%.6g, %.6g]  x%.4f of base %.6g  %s\n",
				d.Name, d.Unit, bm, bq1, bq3, cm, cq1, cq3, cm/bm, bm, v)
		}
	}
	return nil
}

func metricValues(runs []runRecord, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict classifies a change: regressed when its median is worse
// than the base's by more than the bound; unresolved when either
// side's quartile spread exceeds the bound, unless every change run
// beats every base run; improved when the medians differ by more than
// the base's own spread and the change wins nine pairs in ten;
// unchanged otherwise.
func verdict(d metricDef, base, change []float64) string {
	better := func(x, y float64) bool { // x better than y
		if d.Better == "higher" {
			return x > y
		}
		return x < y
	}
	bq1, bm, bq3 := quartiles(base)
	cq1, cm, cq3 := quartiles(change)
	worse := (cm - bm) / bm
	if d.Better == "higher" {
		worse = -worse
	}
	baseSpread := (bq3 - bq1) / math.Abs(bm)
	spread := math.Max(baseSpread, (cq3-cq1)/math.Abs(cm))
	allBetter := true
	for _, c := range change {
		for _, b := range base {
			allBetter = allBetter && better(c, b)
		}
	}
	wins, pairs := 0, min(len(base), len(change))
	for i := 0; i < pairs; i++ {
		if better(change[i], base[i]) {
			wins++
		}
	}
	switch {
	case spread > d.Bound:
		if allBetter {
			return "improved"
		}
		return "unresolved"
	case worse > d.Bound:
		return "regressed"
	case -worse > baseSpread && float64(wins) >= 0.9*float64(pairs):
		return "improved"
	}
	return "unchanged"
}
