package cli

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bo"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/sparksim"
	"repro/internal/tuners"
)

func TestParseRaw(t *testing.T) {
	space := conf.SparkSpace()
	intP, _ := space.Param(conf.ExecutorCores)
	floatP, _ := space.Param(conf.MemoryFraction)
	boolP, _ := space.Param(conf.ShuffleCompress)
	catP, _ := space.Param(conf.Serializer)

	cases := []struct {
		p      conf.Param
		in     string
		want   float64
		hasErr bool
	}{
		{intP, "8", 8, false},
		{intP, "abc", 0, true},
		{floatP, "0.7", 0.7, false},
		{boolP, "true", 1, false},
		{boolP, "false", 0, false},
		{boolP, "maybe", 0, true},
		{catP, "kryo", 1, false},
		{catP, "java", 0, false},
		{catP, "protobuf", 0, true},
	}
	for _, c := range cases {
		got, err := ParseRaw(c.p, c.in)
		if (err != nil) != c.hasErr {
			t.Errorf("%s %q: err=%v want hasErr=%v", c.p.Name, c.in, err, c.hasErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("%s %q = %v, want %v", c.p.Name, c.in, got, c.want)
		}
	}
}

func TestParseSet(t *testing.T) {
	n, v, err := ParseSet("a.b=3")
	if err != nil || n != "a.b" || v != "3" {
		t.Errorf("ParseSet = %q %q %v", n, v, err)
	}
	if _, _, err := ParseSet("noequals"); err == nil {
		t.Error("missing = accepted")
	}
	if _, _, err := ParseSet("=v"); err == nil {
		t.Error("empty name accepted")
	}
	// Values may contain '='.
	n, v, err = ParseSet("k=a=b")
	if err != nil || n != "k" || v != "a=b" {
		t.Errorf("ParseSet with = in value: %q %q %v", n, v, err)
	}
}

func TestApplySets(t *testing.T) {
	space := conf.SparkSpace()
	c, err := ApplySets(space, space.Default(), map[string]string{
		conf.ExecutorCores: "12",
		conf.Serializer:    "kryo",
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Int(conf.ExecutorCores) != 12 || c.Choice(conf.Serializer) != "kryo" {
		t.Errorf("overrides not applied: %d %s", c.Int(conf.ExecutorCores), c.Choice(conf.Serializer))
	}
	if _, err := ApplySets(space, space.Default(), map[string]string{"bogus": "1"}); err == nil {
		t.Error("unknown parameter accepted")
	}
	if _, err := ApplySets(space, space.Default(), map[string]string{conf.ExecutorCores: "x"}); err == nil {
		t.Error("bad value accepted")
	}
}

func TestConfigValuesRoundTrip(t *testing.T) {
	space := conf.SparkSpace()
	c := space.Default().With(conf.ExecutorMemory, 32768)
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := SaveConfigValues(c, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadConfigValues(space, path)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Equal(c) {
		t.Error("round trip changed the config")
	}
}

func TestLoadConfigValuesErrors(t *testing.T) {
	space := conf.SparkSpace()
	if _, err := LoadConfigValues(space, filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte("{"), 0o644)
	if _, err := LoadConfigValues(space, bad); err == nil {
		t.Error("corrupt file accepted")
	}
	unknown := filepath.Join(t.TempDir(), "unknown.json")
	os.WriteFile(unknown, []byte(`{"bogus": 1}`), 0o644)
	if _, err := LoadConfigValues(space, unknown); err == nil {
		t.Error("unknown parameter accepted")
	}
}

func TestBuildTunerOpts(t *testing.T) {
	for name, want := range map[string]string{
		"ROBOTune":     "ROBOTune",
		"robotune":     "ROBOTune",
		"BestConfig":   "BestConfig",
		"gunther":      "Gunther",
		"rs":           "RandomSearch",
		"RandomSearch": "RandomSearch",
		"random":       "RandomSearch",
		"sha":          "SuccessiveHalving",
		"cmaes":        "CMAES",
		"CMA-ES":       "CMAES",
		"bohb":         "BOHB",
	} {
		tn, err := BuildTunerOpts(name, nil, core.Options{})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if tn.Name() != want {
			t.Errorf("%s → %s, want %s", name, tn.Name(), want)
		}
		if !KnownTuner(name) {
			t.Errorf("KnownTuner(%q) = false", name)
		}
		if _, err := BuildStepper(name, conf.SparkSpace(), 5, 1, "", "", core.Options{}); err != nil {
			t.Errorf("BuildStepper(%q): %v", name, err)
		}
	}
	if _, err := BuildTunerOpts("simulated-annealing", nil, core.Options{}); err == nil {
		t.Error("unknown tuner accepted")
	}
	if KnownTuner("simulated-annealing") {
		t.Error("KnownTuner accepted an unknown tuner")
	}
	if _, err := BuildStepper("simulated-annealing", conf.SparkSpace(), 5, 1, "", "", core.Options{}); err == nil {
		t.Error("BuildStepper accepted an unknown tuner")
	}
}

// TestBOHBTakesOptionsBO: BOHB's engine takes Options.BO as ROBOTune's
// does, so the refit budget, the sparse threshold and the cost-aware
// toggle reach it, with Options.Workers filling an unset engine
// worker count.
func TestBOHBTakesOptionsBO(t *testing.T) {
	engine := bo.Config{RefitBudget: 0.2, SparseThreshold: 16, CostAware: true}
	tn, err := BuildTunerOpts("bohb", nil, core.Options{Workers: 3, BO: engine})
	if err != nil {
		t.Fatal(err)
	}
	engine.Workers = 3
	if got := tn.(tuners.BOHB).BO; !reflect.DeepEqual(got, engine) {
		t.Errorf("BOHB engine config %+v, want %+v", got, engine)
	}
}

func TestSparseThreshold(t *testing.T) {
	for _, c := range []struct {
		sparse          bool
		threshold, want int
	}{
		{false, 0, 0}, {false, 16, 0},
		{true, 0, bo.DefaultSparseThreshold}, {true, -3, bo.DefaultSparseThreshold}, {true, 16, 16},
	} {
		if got := SparseThreshold(c.sparse, c.threshold); got != c.want {
			t.Errorf("SparseThreshold(%v, %d) = %d, want %d", c.sparse, c.threshold, got, c.want)
		}
	}
}

func TestParseFidelityAxis(t *testing.T) {
	for spec, want := range map[string]tuners.FidelityAxis{
		"": tuners.AxisInput, "input": tuners.AxisInput, " Input ": tuners.AxisInput,
		"stage": tuners.AxisStage, "STAGE": tuners.AxisStage,
	} {
		got, err := ParseFidelityAxis(spec)
		if err != nil || got != want {
			t.Errorf("ParseFidelityAxis(%q) = %v, %v; want %v", spec, got, err, want)
		}
	}
	if _, err := ParseFidelityAxis("volume"); err == nil {
		t.Error("bad axis accepted")
	}
}

func TestParseFaultPlan(t *testing.T) {
	for _, spec := range []string{"", "off", "none", " "} {
		p, err := ParseFaultPlan(spec)
		if err != nil || p.Enabled() {
			t.Errorf("%q: plan %v err %v, want disabled", spec, p, err)
		}
	}

	p, err := ParseFaultPlan("execloss=0.2, transient=0.1, seed=9")
	if err != nil {
		t.Fatal(err)
	}
	if p.ExecutorLossProb != 0.2 || p.TransientErrProb != 0.1 || p.Seed != 9 {
		t.Errorf("parsed %+v", p)
	}
	if !p.Enabled() {
		t.Error("plan with probabilities not enabled")
	}

	// "default" starts from the stock plan; later fields override.
	p, err = ParseFaultPlan("default,transient=0.5")
	if err != nil {
		t.Fatal(err)
	}
	want := sparksim.DefaultFaultPlan()
	if p.ExecutorLossProb != want.ExecutorLossProb || p.TransientErrProb != 0.5 {
		t.Errorf("default+override parsed %+v", p)
	}

	// An active plan gets a non-zero seed so the fault stream is set.
	p, err = ParseFaultPlan("oom=0.3")
	if err != nil || p.Seed == 0 {
		t.Errorf("plan %+v err %v, want defaulted seed", p, err)
	}

	// A straggler factor <= 1 is accepted and reads as the default 3.
	p, err = ParseFaultPlan("straggler=0.5,stragglerfactor=0.5")
	if err != nil || p.EffectiveStragglerFactor() != 3 {
		t.Errorf("plan %+v err %v, want the default straggler factor", p, err)
	}

	for _, bad := range []string{
		"bogus=1", "execloss", "transient=x", "seed=-1",
		"transient=NaN", "execloss=-0.5", "oom=7", "straggler=0.5,stragglerfactor=Inf",
	} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestExitCode(t *testing.T) {
	if got := ExitCode(tuners.Result{Found: true}); got != 0 {
		t.Errorf("found result exits %d, want 0", got)
	}
	if got := ExitCode(tuners.Result{Found: false}); got != 1 {
		t.Errorf("not-found result exits %d, want 1", got)
	}
}
