// Command robotune tunes a workload's configuration on a simulated
// backend with a chosen tuner, printing the best configuration found,
// the search cost and the convergence trace.
//
// Usage:
//
//	robotune -workload KMeans -dataset 1 -budget 100
//	robotune -workload PageRank -tuner BestConfig
//	robotune -backend clustersim -workload BatchETL           # 2nd backend
//	robotune -workload PageRank -dataset 3 -memo state.json   # reuse caches
//	robotune -workload TeraSort -faults default -retries 2    # faulty cluster
//	robotune -workload KMeans -journal kmeans.jnl             # crash-safe session
//
// Ctrl-C cancels the session gracefully: the best configuration found
// so far is reported. With -journal, the interrupted session can be
// resumed bit-identically by rerunning the same command.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"

	"repro/internal/backend"
	_ "repro/internal/backend/backends"
	"repro/internal/bo"
	"repro/internal/cli"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/memo"
	"repro/internal/tuners"
)

func main() {
	var (
		backendN = flag.String("backend", "spark", "evaluation backend: "+strings.Join(backend.Names(), " | "))
		workload = flag.String("workload", "KMeans", "workload family (spark: PageRank | KMeans | ... ; clustersim: BatchETL | CIBuild | MLTrain | WebServing)")
		dataset  = flag.Int("dataset", 1, "dataset index 1-3 (Table 1: D1-D3)")
		tuner    = flag.String("tuner", "ROBOTune", "tuner (case-insensitive): "+strings.Join(cli.TunerKinds(), " | "))
		budget   = flag.Int("budget", 100, "tuning budget in evaluations")
		seed     = flag.Uint64("seed", 1, "random seed")
		memoPath = flag.String("memo", "", "path to the memoization store (persists caches across runs)")
		capSec   = flag.Float64("cap", 0, "per-evaluation execution time limit in seconds (0 = backend default)")
		tracePth = flag.String("trace", "", "when the session ends, export its journal (every trial, with the result summary) as JSON to this file")
		bestOut  = flag.String("best-out", "", "write the best configuration's raw values as JSON (readable by robosim -conf)")
		verbose  = flag.Bool("v", false, "print every non-default parameter of the best config")
		explain  = flag.Bool("explain", false, "print selection ranking, Hedge weights and config diff (ROBOTune only)")
		workers  = flag.Int("workers", 0, "tuner compute parallelism: goroutines for forest training, importance and acquisition search (0 = all cores, 1 = serial; results are identical)")
		refitBdg = flag.Float64("refit-budget", 0, "ROBOTune and BOHB: cap GP hyperparameter-refit time to this fraction of elapsed wall clock, extending the factorization incrementally in between (0 = fixed every-5-evals cadence)")
		sparse   = flag.Bool("sparse", false, "ROBOTune and BOHB: past -sparse-threshold observations, fit the GP on a local subset (nearest the incumbent + a uniform reservoir) instead of the full history")
		sparseAt = flag.Int("sparse-threshold", 0, "ROBOTune and BOHB: observation count where -sparse kicks in (0 = default 512)")
		deadline = flag.Float64("deadline", 0, "per-evaluation deadline in simulated seconds, layered under the adaptive guard cap (0 = none)")
		retries  = flag.Int("retries", 0, "max re-evaluations of a transiently-failed configuration")
		faults   = flag.String("faults", "", "fault-injection plan: 'default', or execloss=,straggler=,stragglerfactor=,transient=,oom=,seed= (empty/off = no faults)")
		jrnPath  = flag.String("journal", "", "session journal file: every evaluation is committed before the tuner acts on it; if the file exists, the session resumes from it bit-identically (Ctrl-C leaves a resumable journal)")
		jrnSync  = flag.String("journal-sync", "always", "journal fsync policy: always | none")
		multiFid = flag.Bool("multifidelity", false, "run the BOHB multi-fidelity tuner (shorthand for -tuner BOHB): brackets start on cheap input-scale proxies and promote survivors toward the full workload")
		ladder   = flag.String("fidelity-ladder", "", "BOHB: comma-separated ascending fidelity ladder ending at 1, e.g. 0.111,0.333,1 (empty = default 1/9,1/3,1)")
		fidAxis  = flag.String("fidelity-axis", "input", "BOHB: workload dimension the ladder scales: input (data volumes) or stage (stage-plan prefix; usually the cheaper proxy for iterative workloads)")
		costAwre = flag.Bool("cost-aware", false, "divide positive acquisition scores by predicted evaluation cost (EI-per-second; applies to ROBOTune and BOHB)")
	)
	flag.Parse()
	if err := checkBudgets(*budget, *refitBdg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *multiFid {
		*tuner = "BOHB"
	}
	ladderVals, err := cli.ParseFidelityLadder(*ladder)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	bk, err := backend.Lookup(*backendN)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	w, err := bk.Workload(*workload, *dataset-1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v (backend %s tunes: %s)\n", err, bk.Name(), strings.Join(bk.Workloads(), ", "))
		os.Exit(2)
	}
	if *capSec <= 0 {
		*capSec = bk.DefaultCap()
	}

	store := memo.NewStore()
	if *memoPath != "" {
		store, err = memo.Load(*memoPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	tn, err := cli.BuildTunerOpts(*tuner, store, core.Options{
		Workers: *workers,
		BO: bo.Config{
			RefitBudget:     *refitBdg,
			SparseThreshold: cli.SparseThreshold(*sparse, *sparseAt),
			CostAware:       *costAwre,
		},
		FidelityLadder: ladderVals,
		FidelityAxis:   *fidAxis,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	plan, err := cli.ParseFaultPlan(*faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	space := bk.Space()
	ev, err := bk.NewEvaluator(w, *seed, *capSec, plan)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// Durable session journal: resumes if the file already holds this
	// session's records, starts fresh otherwise. -trace exports the
	// journal when the session ends; without -journal the session
	// journals to a temporary file beside the trace, removed after the
	// export.
	meta := journal.Meta{
		Seed:      *seed,
		Budget:    *budget,
		Workload:  w.WorkloadName(),
		Dataset:   w.DatasetName(),
		Tuner:     tn.Name(),
		Cap:       *capSec,
		Deadline:  *deadline,
		Retries:   *retries,
		Faults:    plan.String(),
		SpaceHash: space.Fingerprint(),
	}
	policy := journal.SyncAlways
	switch *jrnSync {
	case "always":
	case "none":
		policy = journal.SyncNone
	default:
		fmt.Fprintf(os.Stderr, "unknown -journal-sync %q (always | none)\n", *jrnSync)
		os.Exit(2)
	}
	jnPath := *jrnPath
	if jnPath == "" && *tracePth != "" {
		f, err := os.CreateTemp(filepath.Dir(*tracePth), filepath.Base(*tracePth)+".*.jnl")
		if err == nil {
			jnPath, err = f.Name(), f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "saving trace:", err)
			os.Exit(1)
		}
		policy = journal.SyncNone
	}
	var jn *journal.Journal
	if jnPath != "" {
		jn, err = journal.Open(jnPath, meta, policy)
		if err != nil {
			if *jrnPath == "" {
				os.Remove(jnPath)
			}
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *jrnPath != "" && jn.Resumed() {
			fmt.Printf("resuming from journal %s: %d committed evaluations to replay\n", *jrnPath, jn.ReplayPending())
			if rec := jn.Recovery(); rec.Truncated {
				fmt.Printf("journal recovery: truncated a torn tail (%d bytes, %s); committed records are intact\n",
					rec.TruncatedBytes, rec.Reason)
			}
		}
	}

	// Ctrl-C cancels the session: the tuner unwinds within one
	// evaluation and reports the best-so-far. With -journal set the
	// interrupted session stays resumable — rerun the same command to
	// continue it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("tuning %s/%s on %s with %s (budget %d, cap %.0fs",
		w.WorkloadName(), w.DatasetName(), bk.Name(), tn.Name(), *budget, *capSec)
	if plan.Enabled() {
		fmt.Printf(", faults %s", plan)
	}
	fmt.Println(")")
	res := tn.Run(tuners.NewSession(ev, space, tuners.Request{
		Ctx:      ctx,
		Budget:   *budget,
		Seed:     *seed,
		Deadline: *deadline,
		Retry:    tuners.RetryPolicy{MaxRetries: *retries},
		Journal:  jn,
	}))
	if jn != nil {
		err := jn.Err()
		if cerr := jn.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "journal degraded (campaign unaffected): %v\n", err)
		}
		if reason := jn.Diverged(); reason != "" {
			fmt.Fprintf(os.Stderr, "journal replay diverged (%s); stale tail truncated, session continued live\n", reason)
		}
		if res.Cancelled && *jrnPath != "" {
			fmt.Printf("journal %s holds %d committed evaluations; rerun the same command to resume\n", *jrnPath, jn.Trials())
		}
	}
	if res.Cancelled {
		fmt.Println("\ninterrupted: reporting the best configuration found so far")
	}
	if res.Failures.Failed > 0 || res.Failures.Retries > 0 {
		f := res.Failures
		fmt.Printf("robustness: %d failed (%d OOM, %d infeasible), %d transient, %d retries\n",
			f.Failed, f.OOM, f.Infeasible, f.Transient, f.Retries)
	}

	if *tracePth != "" {
		n, err := exportTrace(*tracePth, jnPath, meta, res)
		if *jrnPath == "" {
			os.Remove(jnPath)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "saving trace:", err)
			os.Exit(1)
		}
		fmt.Printf("session trace (%d trials) saved to %s\n", n, *tracePth)
	}

	if code := cli.ExitCode(res); code != 0 {
		fmt.Println("no completing configuration found within budget")
		os.Exit(code)
	}

	fmt.Printf("\nbest execution time : %8.1f s (observed during search)\n", res.BestSeconds)
	if m, ok := ev.(backend.Measurer); ok {
		fmt.Printf("verified (5 runs)   : %8.1f s\n", m.Measure(res.Best, 5, *seed*31+7))
	}
	fmt.Printf("tuning evaluations  : %8d\n", res.Evals)
	fmt.Printf("search cost         : %8.0f s (simulated)\n", res.SearchCost)
	if res.SelectionEvals > 0 {
		fmt.Printf("selection (one-time): %8d evals, %.0f s\n", res.SelectionEvals, res.SelectionCost)
	}
	if len(res.SelectedParams) > 0 {
		fmt.Printf("selected parameters : %s\n", strings.Join(res.SelectedParams, ", "))
	}

	fmt.Println("\nbest configuration (tuned parameters):")
	printConfig(space, res.Best, res.SelectedParams, *verbose)

	if *explain {
		if rt, ok := tn.(*core.ROBOTune); ok {
			fmt.Println("\n--- session explanation ---")
			fmt.Print(rt.Explain(space, res))
		}
	}

	// Convergence trace: running minimum every 10 iterations. A
	// session cancelled during selection has no tuning trace. Proxy
	// (reduced-fidelity) observations are excluded — their seconds
	// measure a scaled-down workload, not the real objective.
	if len(res.Trace) > 0 {
		fmt.Println("\nconvergence (running min):")
		runMin := math.Inf(1)
		for i, v := range res.Trace {
			if (len(res.Proxy) <= i || !res.Proxy[i]) && v < runMin {
				runMin = v
			}
			if (i+1)%10 == 0 || i == len(res.Trace)-1 {
				if math.IsInf(runMin, 1) {
					fmt.Printf("  iter %3d:     n/a (proxy evaluations only so far)\n", i+1)
				} else {
					fmt.Printf("  iter %3d: %7.1f s\n", i+1, runMin)
				}
			}
		}
	}

	if *bestOut != "" {
		if err := cli.SaveConfigValues(res.Best, *bestOut); err != nil {
			fmt.Fprintln(os.Stderr, "saving best config:", err)
			os.Exit(1)
		}
		fmt.Printf("\nbest configuration saved to %s\n", *bestOut)
	}
	// A cancelled journaled session skips the memo save: the store may
	// hold a partial selection outcome, and persisting it would hand the
	// resume a selection-cache hit the uninterrupted run never had —
	// breaking bit-identical resume. The resumed session re-derives and
	// saves the store when it completes.
	if *memoPath != "" && !(res.Cancelled && *jrnPath != "") {
		if err := store.Save(*memoPath); err != nil {
			fmt.Fprintln(os.Stderr, "saving memo store:", err)
			os.Exit(1)
		}
		fmt.Printf("\nmemoization store saved to %s\n", *memoPath)
	}
}

// traceLog is the -trace file: the session's journal meta, every
// committed trial in trial order, and the session's result summary.
type traceLog struct {
	journal.Meta
	Records []journal.EvalEntry `json:"records"`
	// Best and BestSeconds are set only when Found: BestSeconds is +Inf
	// when nothing completed, which JSON cannot encode.
	Best           map[string]float64  `json:"best,omitempty"`
	BestSeconds    float64             `json:"bestSeconds,omitempty"`
	Found          bool                `json:"found"`
	Evals          int                 `json:"evals"`
	SearchCost     float64             `json:"searchCost"`
	SelectionEvals int                 `json:"selectionEvals,omitempty"`
	SelectionCost  float64             `json:"selectionCost,omitempty"`
	SelectedParams []string            `json:"selectedParams,omitempty"`
	Failures       tuners.FailureStats `json:"failures"`
	Cancelled      bool                `json:"cancelled,omitempty"`
}

// exportTrace writes the -trace file when a session ends: it reopens
// the session's closed journal at jnPath under meta, reads back every
// committed trial — a resumed session's replayed prefix included —
// and writes them with res's summary. It returns the number of trials
// written.
func exportTrace(path, jnPath string, meta journal.Meta, res tuners.Result) (int, error) {
	jn, err := journal.Open(jnPath, meta, journal.SyncNone)
	if err != nil {
		return 0, err
	}
	defer jn.Close()
	tl := traceLog{
		Meta:           meta,
		Records:        make([]journal.EvalEntry, 0, jn.ReplayPending()),
		Found:          res.Found,
		Evals:          res.Evals,
		SearchCost:     res.SearchCost,
		SelectionEvals: res.SelectionEvals,
		SelectionCost:  res.SelectionCost,
		SelectedParams: res.SelectedParams,
		Failures:       res.Failures,
		Cancelled:      res.Cancelled,
	}
	for e, ok := jn.NextReplay(); ok; e, ok = jn.NextReplay() {
		tl.Records = append(tl.Records, e)
	}
	if res.Found {
		tl.Best, tl.BestSeconds = res.Best.ToMap(), res.BestSeconds
	}
	data, err := json.MarshalIndent(tl, "", "  ")
	if err != nil {
		return 0, err
	}
	return len(tl.Records), journal.WriteFile(path, data)
}

// checkBudgets rejects the budgets robotuned's session spec refuses:
// a session needs at least one evaluation, and the refit budget is a
// fraction of wall clock in [0, 1).
func checkBudgets(budget int, refitBudget float64) error {
	if budget < 1 {
		return fmt.Errorf("-budget must be at least 1, got %d", budget)
	}
	if math.IsNaN(refitBudget) || refitBudget < 0 || refitBudget >= 1 {
		return fmt.Errorf("-refit-budget must be in [0, 1), got %v", refitBudget)
	}
	return nil
}

func printConfig(space *conf.Space, c conf.Config, selected []string, verbose bool) {
	show := map[string]bool{}
	for _, p := range selected {
		show[p] = true
	}
	def := space.Default()
	names := space.Names()
	sort.Strings(names)
	for _, n := range names {
		p, _ := space.Param(n)
		if !show[n] {
			if !verbose || c.Raw(n) == def.Raw(n) {
				continue
			}
		}
		fmt.Printf("  %-44s = %s\n", n, p.FormatRaw(c.Raw(n)))
	}
}
