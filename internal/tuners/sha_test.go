package tuners

import (
	"testing"

	"repro/internal/clustersim"
	"repro/internal/conf"
	"repro/internal/sparksim"
)

func TestSHARespectssBudgetAndFinds(t *testing.T) {
	obj := newSynth(smoothObjective)
	res := SuccessiveHalving{}.Run(NewSession(obj, smallSpace(t), Request{Budget: 60, Seed: 1}))
	if res.Evals > 60 {
		t.Fatalf("evals = %d exceeds budget", res.Evals)
	}
	if !res.Found {
		t.Fatal("SHA found nothing")
	}
	if res.BestSeconds > 75 {
		t.Errorf("SHA best %v too far from optimum ~50", res.BestSeconds)
	}
}

func TestSHAOnSimulatorUsesCheapEarlyRounds(t *testing.T) {
	space := conf.SparkSpace()
	ev := sparksim.NewEvaluator(sparksim.PaperCluster(), sparksim.KMeans(200), 4, 480)
	res := SuccessiveHalving{}.Run(NewSession(ev, space, Request{Budget: 60, Seed: 4}))
	if !res.Found {
		t.Fatal("SHA found nothing on KMeans")
	}
	// The tight early caps keep mean per-evaluation cost well under
	// the 480 s worst case.
	perEval := res.SearchCost / float64(res.Evals)
	if perEval > 300 {
		t.Errorf("mean cost per eval %v, expected early-kill savings", perEval)
	}
	// Compare with Random Search under the same budget: SHA should be
	// cheaper per evaluation (RS runs everything to the cap).
	evRS := sparksim.NewEvaluator(sparksim.PaperCluster(), sparksim.KMeans(200), 4, 480)
	rs := RandomSearch{}.Run(NewSession(evRS, space, Request{Budget: 60, Seed: 4}))
	if rs.Evals > 0 && perEval >= rs.SearchCost/float64(rs.Evals) {
		t.Errorf("SHA per-eval cost %v should be below RS %v",
			perEval, rs.SearchCost/float64(rs.Evals))
	}
}

func TestSHADeterministic(t *testing.T) {
	a := SuccessiveHalving{}.Run(NewSession(newSynth(smoothObjective), smallSpace(t), Request{Budget: 40, Seed: 9}))
	b := SuccessiveHalving{}.Run(NewSession(newSynth(smoothObjective), smallSpace(t), Request{Budget: 40, Seed: 9}))
	if a.BestSeconds != b.BestSeconds || a.SearchCost != b.SearchCost {
		t.Error("same seed differs")
	}
}

func TestSHAHandlesFailures(t *testing.T) {
	obj := newSynth(func(conf.Config) (float64, bool) { return 1000, false })
	res := SuccessiveHalving{}.Run(NewSession(obj, smallSpace(t), Request{Budget: 30, Seed: 2}))
	if res.Found {
		t.Error("all-failing objective reported success")
	}
	if res.Evals > 30 {
		t.Errorf("evals = %d", res.Evals)
	}
}

// TestSHAFinalRungUsesEvaluatorLimit: the final rung and the jitter
// trials run under the evaluator's own limit, not the Spark paper's
// 480 s. MLTrain at D3 on clustersim (2400 s limit) runs well past
// 480 s under any configuration, so a final rung capped at 480 s fails
// every trial and finds nothing.
func TestSHAFinalRungUsesEvaluatorLimit(t *testing.T) {
	w, err := clustersim.WorkloadByName("MLTrain", 2)
	if err != nil {
		t.Fatal(err)
	}
	ev := clustersim.NewEvaluator(w, 5, 0)
	res := SuccessiveHalving{}.Run(NewSession(ev, clustersim.Space(), Request{Budget: 30, Seed: 5}))
	if !res.Found {
		t.Fatalf("found nothing: %d of %d runs failed", res.Failures.Failed, res.Evals)
	}
	if res.BestSeconds <= 480 || res.BestSeconds >= clustersim.DefaultCapSeconds {
		t.Errorf("best %v s, want a completed run between 480 s and the %v s limit", res.BestSeconds, clustersim.DefaultCapSeconds)
	}
}

func TestCMAESTunerBudgetAndQuality(t *testing.T) {
	obj := newSynth(smoothObjective)
	res := CMAES{}.Run(NewSession(obj, smallSpace(t), Request{Budget: 80, Seed: 5}))
	if res.Evals > 80 {
		t.Fatalf("evals = %d exceeds budget", res.Evals)
	}
	if !res.Found {
		t.Fatal("CMAES found nothing")
	}
	if res.BestSeconds > 70 {
		t.Errorf("CMAES best %v too far from optimum ~50", res.BestSeconds)
	}
}

func TestCMAESTunerOnSimulator(t *testing.T) {
	ev := sparksim.NewEvaluator(sparksim.PaperCluster(), sparksim.TeraSort(20), 6, 480)
	res := CMAES{}.Run(NewSession(ev, conf.SparkSpace(), Request{Budget: 50, Seed: 6}))
	if !res.Found {
		t.Fatal("CMAES found nothing on TeraSort")
	}
	if res.BestSeconds > 400 {
		t.Errorf("CMAES best %v", res.BestSeconds)
	}
}

func TestCMAESTunerDeterministic(t *testing.T) {
	a := CMAES{}.Run(NewSession(newSynth(smoothObjective), smallSpace(t), Request{Budget: 40, Seed: 8}))
	b := CMAES{}.Run(NewSession(newSynth(smoothObjective), smallSpace(t), Request{Budget: 40, Seed: 8}))
	if a.BestSeconds != b.BestSeconds {
		t.Error("same seed differs")
	}
}
