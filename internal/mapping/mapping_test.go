package mapping

import (
	"math"
	"os"
	"testing"

	"repro/internal/backend"
	"repro/internal/conf"
	"repro/internal/sparksim"
)

func evaluatorFor(w sparksim.Workload, seed uint64) Evaluator {
	ev := sparksim.NewEvaluator(sparksim.PaperCluster(), w, seed, 480)
	return func(c conf.Config) float64 { return ev.EvaluateSpec(c, backend.EvalSpec{}).Seconds }
}

func TestPearson(t *testing.T) {
	if r, ok := pearson([]float64{1, 2, 3}, []float64{2, 4, 6}); !ok || math.Abs(r-1) > 1e-12 {
		t.Errorf("perfect correlation: %v %v", r, ok)
	}
	if r, ok := pearson([]float64{1, 2, 3}, []float64{3, 2, 1}); !ok || math.Abs(r+1) > 1e-12 {
		t.Errorf("perfect anticorrelation: %v %v", r, ok)
	}
	if _, ok := pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); ok {
		t.Error("constant vector should be uncomputable")
	}
	if _, ok := pearson([]float64{1}, []float64{1}); ok {
		t.Error("single point should be uncomputable")
	}
	if _, ok := pearson([]float64{1, 2}, []float64{1, 2, 3}); ok {
		t.Error("length mismatch should be uncomputable")
	}
}

func TestProbesDeterministicAndShared(t *testing.T) {
	space := conf.SparkSpace()
	a := NewMapper(space, 8, 1)
	b := NewMapper(space, 8, 1)
	pa, pb := a.ProbeConfigs(), b.ProbeConfigs()
	if len(pa) != 8 || a.ProbeCount() != 8 {
		t.Fatalf("probe count %d", len(pa))
	}
	for i := range pa {
		if !pa[i].Equal(pb[i]) {
			t.Fatal("probe sets differ across mappers with the same seed")
		}
	}
}

func TestSameFamilyDifferentDatasetCorrelatesHighly(t *testing.T) {
	space := conf.SparkSpace()
	m := NewMapper(space, 10, 2)
	sigD1 := m.Characterize(evaluatorFor(sparksim.PageRank(5), 3))
	sigD3 := m.Characterize(evaluatorFor(sparksim.PageRank(10), 4))
	// Probe runs that hit the 480 s evaluation cap flatten the larger
	// dataset's signature, so cross-dataset correlation is high but
	// not perfect.
	r, ok := pearson(sigD1.LogTimes, sigD3.LogTimes)
	if !ok || r < 0.7 {
		t.Errorf("PR-D1 vs PR-D3 correlation = %v (ok=%v), want > 0.7", r, ok)
	}
}

func TestGraphWorkloadsCorrelateMoreThanUnrelatedOnes(t *testing.T) {
	space := conf.SparkSpace()
	m := NewMapper(space, 10, 2)
	pr := m.Characterize(evaluatorFor(sparksim.PageRank(10), 5))
	cc := m.Characterize(evaluatorFor(sparksim.ConnectedComponents(10), 6))
	km := m.Characterize(evaluatorFor(sparksim.KMeans(200), 7))
	rGraph, _ := pearson(pr.LogTimes, cc.LogTimes)
	rCross, _ := pearson(pr.LogTimes, km.LogTimes)
	if rGraph <= rCross {
		t.Errorf("PR~CC correlation (%v) should exceed PR~KM (%v)", rGraph, rCross)
	}
}

func TestRegisterAndBestMatch(t *testing.T) {
	space := conf.SparkSpace()
	m := NewMapper(space, 10, 2)
	pr := m.Characterize(evaluatorFor(sparksim.PageRank(5), 8))
	km := m.Characterize(evaluatorFor(sparksim.KMeans(200), 9))
	if err := m.Register("PageRank", pr); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("KMeans", km); err != nil {
		t.Fatal(err)
	}
	if got := m.Known(); len(got) != 2 || got[0] != "KMeans" {
		t.Fatalf("Known = %v", got)
	}

	// A new PageRank dataset should map back to PageRank.
	probe := m.Characterize(evaluatorFor(sparksim.PageRank(7.5), 10))
	match, ok := m.BestMatch(probe)
	if !ok || match.Workload != "PageRank" {
		t.Fatalf("BestMatch = %+v ok=%v", match, ok)
	}
	if match.Similarity < 0.8 {
		t.Errorf("similarity %v too low", match.Similarity)
	}
	ms := m.Matches(probe)
	if len(ms) != 2 || ms[0].Similarity < ms[1].Similarity {
		t.Errorf("Matches not ranked: %+v", ms)
	}
}

func TestRegisterValidation(t *testing.T) {
	m := NewMapper(conf.SparkSpace(), 8, 1)
	if err := m.Register("x", Signature{}); err == nil {
		t.Error("empty signature accepted")
	}
	if err := m.Register("x", Signature{LogTimes: []float64{1, 2}}); err == nil {
		t.Error("wrong-length signature accepted")
	}
}

func TestBestMatchEmptyMapper(t *testing.T) {
	m := NewMapper(conf.SparkSpace(), 8, 1)
	sig := Signature{LogTimes: make([]float64, 8)}
	if _, ok := m.BestMatch(sig); ok {
		t.Error("empty mapper returned a match")
	}
}

func TestMapperPersistence(t *testing.T) {
	space := conf.SparkSpace()
	dir := t.TempDir()
	path := dir + "/mapper.json"

	m := NewMapper(space, 6, 3)
	sig := m.Characterize(evaluatorFor(sparksim.TeraSort(20), 11))
	if err := m.Register("TeraSort", sig); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadMapper(space, path, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Probe design survives verbatim: a signature characterized with
	// the loaded mapper is comparable with the stored one.
	probe := loaded.Characterize(evaluatorFor(sparksim.TeraSort(30), 12))
	match, ok := loaded.BestMatch(probe)
	if !ok || match.Workload != "TeraSort" {
		t.Fatalf("match after reload = %+v ok=%v", match, ok)
	}
	// Missing file returns a fresh mapper.
	fresh, err := LoadMapper(space, dir+"/none.json", 6, 3)
	if err != nil || len(fresh.Known()) != 0 {
		t.Errorf("missing file: %v %v", fresh.Known(), err)
	}
}

func TestLoadMapperValidation(t *testing.T) {
	space := conf.SparkSpace()
	dir := t.TempDir()
	bad := dir + "/bad.json"
	os.WriteFile(bad, []byte("{"), 0o644)
	if _, err := LoadMapper(space, bad, 6, 3); err == nil {
		t.Error("corrupt file accepted")
	}
	empty := dir + "/empty.json"
	os.WriteFile(empty, []byte(`{"signatures": {}}`), 0o644)
	if _, err := LoadMapper(space, empty, 6, 3); err == nil {
		t.Error("file without probes accepted")
	}
	wrongDim := dir + "/dim.json"
	os.WriteFile(wrongDim, []byte(`{"probes": [[0.5, 0.5]], "signatures": {}}`), 0o644)
	if _, err := LoadMapper(space, wrongDim, 6, 3); err == nil {
		t.Error("wrong-dimension probes accepted")
	}
}
