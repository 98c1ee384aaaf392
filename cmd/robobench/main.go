// Command robobench regenerates the paper's evaluation tables and
// figures (§5) on the simulated cluster.
//
// Usage:
//
//	robobench -exp all            # everything (slow)
//	robobench -exp fig3,fig4     # tuner quality + search cost
//	robobench -exp fig2 -full    # paper-scale Figure 2
//
// Experiments (comma-separated, or "all"): fig2 fig3 fig4 fig5 fig6
// table2 fig7 fig8 fig9 default extended ablations mapping clustersim
// amortization. An unknown name is an error. fig3, fig4, fig5, fig6,
// table2, default (§5.2), amortization (§5.5) and -csv all read one
// comparison grid, run at most once.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/tuners"
)

func main() {
	var (
		expFlag = flag.String("exp", "all", "experiments to run (comma separated, or 'all')")
		full    = flag.Bool("full", false, "paper-scale evaluation (5 repeats; slower)")
		seed    = flag.Uint64("seed", 1, "random seed")
		budget  = flag.Int("budget", 100, "tuning budget in evaluations")
		repeats = flag.Int("repeats", 0, "tuning sessions per dataset (0 = scale default)")
		outPath = flag.String("out", "", "write a Markdown report of Figures 2-9, Table 2 and §5.2 to this file instead of running -exp")
		csvDir  = flag.String("csv", "", "write machine-readable CSVs (sessions, fig3, fig4, traces) into this directory")
		workers = flag.Int("workers", 0, "tuner compute parallelism (0 = all cores, 1 = serial; results are identical)")
		conc    = flag.Int("concurrent", 0, "campaign concurrency: tuning sessions scheduled at once over a shared evaluation pool (<= 1 = serial; results are identical)")
		faults  = flag.String("faults", "", "fault-injection plan for tuning evaluations: 'default', or execloss=,straggler=,stragglerfactor=,transient=,oom=,seed= (empty/off = no faults; quality measurement stays fault-free)")
		retries = flag.Int("retries", 0, "max re-evaluations of a transiently-failed configuration per session")
		lgrPath = flag.String("campaign-journal", "", "campaign ledger path for the comparison grid: a killed run resumes mid-grid (completed sessions reused, in-flight ones continued from their session journals)")
	)
	flag.Parse()

	plan, err := cli.ParseFaultPlan(*faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cfg := experiments.Defaults()
	if *full {
		cfg = experiments.Full()
	}
	cfg.Seed = *seed
	cfg.Budget = *budget
	cfg.Workers = *workers
	cfg.Concurrency = *conc
	cfg.Faults = plan
	cfg.Retry = tuners.RetryPolicy{MaxRetries: *retries}
	if *repeats > 0 {
		cfg.Repeats = *repeats
	}
	if plan.Enabled() {
		fmt.Printf("fault injection: %s (retries %d)\n", plan, *retries)
	}

	want, err := parseExperiments(*expFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	has := func(name string) bool { return want["all"] || want[name] }

	start := time.Now()

	if *outPath != "" {
		// Report mode runs the report's experiments once and writes Markdown.
		section("Full report")
		comp := runComparison(cfg, *lgrPath)
		md := report.FullReport(cfg, comp)
		if err := os.WriteFile(*outPath, []byte(md), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "writing report:", err)
			os.Exit(1)
		}
		fmt.Printf("report written to %s (%d bytes)\n", *outPath, len(md))
		fmt.Printf("\ncompleted in %v\n", time.Since(start).Round(time.Millisecond))
		return
	}

	grid := sync.OnceValue(func() *experiments.Comparison { return runComparison(cfg, *lgrPath) })

	if has("fig2") {
		section("Figure 2 (model comparison)")
		samples := 200
		fmt.Print(experiments.Fig2ModelComparison(cfg, samples).Render())
	}

	if has("fig3") || has("fig4") || has("fig5") || has("fig6") || has("table2") || *csvDir != "" {
		section("Comparison grid (4 tuners x 5 workloads x 3 datasets)")
		comp := grid()
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, comp); err != nil {
				fmt.Fprintln(os.Stderr, "writing CSVs:", err)
				os.Exit(1)
			}
			fmt.Printf("CSVs written to %s\n\n", *csvDir)
		}
		if has("fig3") {
			rows := comp.Fig3()
			fmt.Print(experiments.RenderScaled("Figure 3 — best execution time scaled to RandomSearch (lower is better)", rows))
			for _, other := range []string{"BestConfig", "Gunther", "RandomSearch"} {
				mean, max := experiments.SummarizeScaled(rows, other)
				fmt.Printf("  ROBOTune vs %-12s: %.2fx mean, %.2fx max advantage\n", other, mean, max)
			}
			fmt.Println()
		}
		if has("fig4") {
			rows := comp.Fig4()
			fmt.Print(experiments.RenderScaled("Figure 4 — search cost scaled to RandomSearch (lower is better)", rows))
			for _, other := range []string{"BestConfig", "Gunther", "RandomSearch"} {
				mean, max := experiments.SummarizeScaled(rows, other)
				fmt.Printf("  ROBOTune vs %-12s: %.2fx mean, %.2fx max advantage\n", other, mean, max)
			}
			fmt.Println()
		}
		if has("fig5") {
			for _, w := range []string{"PageRank", "KMeans"} {
				fmt.Println(comp.Fig5(w).Render())
			}
		}
		if has("fig6") {
			fmt.Println(comp.Fig6("PageRank").Render("PageRank"))
		}
		if has("table2") {
			fmt.Println(experiments.RenderTable2(comp.Table2()))
		}
	}

	if has("fig7") {
		section("Figure 7 (selection recall vs sample count)")
		fmt.Print(experiments.Fig7SelectionRecall(cfg, nil).Render())
	}
	if has("fig8") {
		section("Figure 8 (sampling behavior)")
		fmt.Print(experiments.Fig8SamplingBehavior(cfg).Render())
	}
	if has("fig9") {
		section("Figure 9 (response surface)")
		fmt.Print(experiments.Fig9ResponseSurface(cfg, nil, 0).Render())
	}
	if has("default") {
		section("§5.2 default-configuration comparison")
		fmt.Print(experiments.RenderDefault(grid().VsDefault()))
	}
	if has("extended") {
		section("Extended comparison (extension tuners)")
		rows, _ := experiments.ExtendedComparison(cfg, nil)
		fmt.Print(experiments.RenderExtended(rows))
	}
	if has("ablations") {
		section("Design-choice ablations")
		fmt.Print(experiments.Ablations(cfg).Render())
	}
	if has("mapping") {
		section("Workload mapping (extension)")
		fmt.Print(experiments.RenderMapping(experiments.MappingExperiment(cfg)))
	}
	if has("clustersim") {
		section("Cluster-scheduler backend (policy tuning grid)")
		cc := experiments.RunClusterComparison(cfg, nil)
		fmt.Print(experiments.RenderClusterComparison(cc))
		fmt.Printf("\n  mean gain over default policy: ROBOTune %.1f%%, RandomSearch %.1f%%\n",
			100*cc.GainOverDefault("ROBOTune"), 100*cc.GainOverDefault("RandomSearch"))
	}
	if has("amortization") {
		section("§5.5 selection-cost amortization")
		for _, w := range []string{"PageRank", "KMeans"} {
			fmt.Println(experiments.RenderAmortization(w, grid().Amortization(w)))
		}
	}

	fmt.Printf("\ncompleted in %v\n", time.Since(start).Round(time.Millisecond))
}

// runComparison runs the shared tuner grid, durably when a campaign
// ledger path was given: a re-run after a crash (or SIGKILL) resumes
// mid-grid instead of starting over.
func runComparison(cfg experiments.Config, ledgerPath string) *experiments.Comparison {
	if ledgerPath == "" {
		return experiments.RunComparison(cfg, nil)
	}
	comp, info, err := experiments.RunComparisonDurable(cfg, nil, ledgerPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign journal:", err)
		os.Exit(1)
	}
	// Notices go to stderr so a resumed run's report stays
	// byte-identical to an uninterrupted one.
	if info.Resumed {
		fmt.Fprintf(os.Stderr, "campaign journal: resumed %s (%d tasks reused)\n", info.LedgerPath, info.Reused)
	}
	for _, f := range info.Failed {
		fmt.Fprintln(os.Stderr, "campaign journal: task failed:", f)
	}
	if info.Err != nil {
		fmt.Fprintf(os.Stderr, "campaign journal degraded (campaign unaffected): %v\n", info.Err)
	}
	return comp
}

// experimentNames lists every -exp value robobench knows, in the
// order it prints them.
var experimentNames = []string{
	"fig2", "fig3", "fig4", "fig5", "fig6", "table2", "fig7", "fig8", "fig9",
	"default", "extended", "ablations", "mapping", "clustersim", "amortization", "all",
}

// parseExperiments splits a comma-separated -exp value into the set of
// experiments to run. It rejects the whole list if any name is
// unknown, so a typo cannot silently drop an experiment.
func parseExperiments(list string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, e := range strings.Split(list, ",") {
		name := strings.TrimSpace(strings.ToLower(e))
		if !slices.Contains(experimentNames, name) {
			return nil, fmt.Errorf("unknown experiment %q; have %s", name, strings.Join(experimentNames, ", "))
		}
		want[name] = true
	}
	return want, nil
}

func section(title string) {
	fmt.Printf("\n=== %s ===\n\n", title)
}

// writeCSVs dumps the comparison's machine-readable artifacts.
func writeCSVs(dir string, comp *experiments.Comparison) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(w *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		return fn(f)
	}
	if err := write("sessions.csv", func(f *os.File) error { return comp.WriteSessionsCSV(f) }); err != nil {
		return err
	}
	if err := write("fig3_quality.csv", func(f *os.File) error {
		return experiments.WriteScaledCSV(f, comp.Fig3())
	}); err != nil {
		return err
	}
	if err := write("fig4_cost.csv", func(f *os.File) error {
		return experiments.WriteScaledCSV(f, comp.Fig4())
	}); err != nil {
		return err
	}
	return write("traces.csv", func(f *os.File) error { return comp.WriteTracesCSV(f) })
}
