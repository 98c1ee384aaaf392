package bo

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/sample"
)

// TestZeroConfigIsDefault: New resolves the zero Config, field by
// field, to the configuration ROBOTune has always run (the GP-Hedge
// portfolio, η = 1, a Matérn GP fitted by 4-restart likelihood search,
// a 256-point pool, 3 starts), and a config that sets one field keeps
// the defaults of all the others.
func TestZeroConfigIsDefault(t *testing.T) {
	want := Config{
		Portfolio:     []Acquisition{PI{Xi: 0.01}, EI{Xi: 0.01}, LCB{Kappa: 1.96}},
		Eta:           1,
		GPRestarts:    4,
		CandidatePool: 256,
		Starts:        3,
	}
	if got := New(3, Config{}).cfg; !reflect.DeepEqual(got, want) {
		t.Errorf("New(Config{}) resolves to\n%+v\nwant\n%+v", got, want)
	}
	want.CandidatePool = 32
	if got := New(3, Config{CandidatePool: 32}).cfg; !reflect.DeepEqual(got, want) {
		t.Errorf("New(Config{CandidatePool: 32}) resolves to\n%+v\nwant\n%+v", got, want)
	}
}

// score is a's score alone, without its partials.
func score(a Acquisition, mu, sigma, fBest float64) float64 {
	s, _, _ := a.Score(mu, sigma, fBest)
	return s
}

func TestPIMonotoneInImprovement(t *testing.T) {
	a := PI{Xi: 0.01}
	// Lower predicted mean (bigger improvement) → higher PI.
	if score(a, 0.2, 0.1, 1.0) <= score(a, 0.8, 0.1, 1.0) {
		t.Error("PI should prefer lower means")
	}
	// Degenerate σ=0: 1 when strictly better, 0 otherwise.
	if score(a, 0.5, 0, 1.0) != 1 || score(a, 1.5, 0, 1.0) != 0 {
		t.Error("PI σ=0 edge cases wrong")
	}
	// Probability bounds.
	if s := score(a, 0.5, 0.3, 1.0); s < 0 || s > 1 {
		t.Errorf("PI out of [0,1]: %v", s)
	}
}

func TestEIProperties(t *testing.T) {
	a := EI{Xi: 0.01}
	if score(a, 0.5, 0, 1.0) != 0 {
		t.Error("EI with σ=0 must be 0 (eq. 3)")
	}
	if score(a, 0.2, 0.1, 1.0) <= score(a, 0.8, 0.1, 1.0) {
		t.Error("EI should prefer lower means")
	}
	// More uncertainty → more expected improvement when means equal.
	if score(a, 1.0, 0.5, 1.0) <= score(a, 1.0, 0.1, 1.0) {
		t.Error("EI should grow with σ at equal mean")
	}
	// EI is nonnegative.
	f := func(mu, sigma, best float64) bool {
		s := score(a, mu, math.Abs(sigma), best)
		return s >= 0 && !math.IsNaN(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLCBTradeoff(t *testing.T) {
	a := LCB{Kappa: 1.96}
	// Lower mean is better...
	if score(a, 0.2, 0.1, 0) <= score(a, 0.8, 0.1, 0) {
		t.Error("LCB should prefer lower means")
	}
	// ...and higher variance is better (exploration).
	if score(a, 0.5, 0.5, 0) <= score(a, 0.5, 0.1, 0) {
		t.Error("LCB should prefer higher uncertainty")
	}
}

func TestSoftmax(t *testing.T) {
	out := make([]float64, 3)
	softmax([]float64{0, 0, 0}, 1, out)
	for _, p := range out {
		if math.Abs(p-1.0/3) > 1e-12 {
			t.Errorf("uniform gains should give uniform probs: %v", out)
		}
	}
	softmax([]float64{10, 0, -10}, 1, out)
	if !(out[0] > out[1] && out[1] > out[2]) {
		t.Errorf("softmax ordering wrong: %v", out)
	}
	var sum float64
	for _, p := range out {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("softmax sums to %v", sum)
	}
	// Large gains must not overflow.
	softmax([]float64{1e5, 0, 0}, 1, out)
	if math.IsNaN(out[0]) || out[0] < 0.999 {
		t.Errorf("softmax overflow handling: %v", out)
	}
}

func TestSoftmaxSumProperty(t *testing.T) {
	f := func(a, b, c float64, etaRaw uint8) bool {
		g := []float64{norm(a), norm(b), norm(c)}
		eta := 0.1 + float64(etaRaw)/64
		out := make([]float64, 3)
		softmax(g, eta, out)
		var sum float64
		for _, p := range out {
			if p < 0 || math.IsNaN(p) {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func norm(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 100)
}

// quadratic is a 2-d test objective with minimum at (0.7, 0.3).
func quadratic(x []float64) float64 {
	a := x[0] - 0.7
	b := x[1] - 0.3
	return a*a + b*b
}

func seedEngine(e *Engine, n int, seed uint64) {
	rng := sample.NewRNG(seed)
	for _, p := range sample.LHS(n, 2, rng) {
		e.Tell(p, quadratic(p))
	}
}

func TestEngineConvergesOnQuadratic(t *testing.T) {
	e := New(2, Config{Seed: 1})
	seedEngine(e, 8, 1)
	for i := 0; i < 20; i++ {
		x, err := e.Suggest()
		if err != nil {
			t.Fatal(err)
		}
		e.Tell(x, quadratic(x))
	}
	_, best, ok := e.Best()
	if !ok || best > 0.01 {
		t.Errorf("BO best = %v after 20 iterations, want < 0.01", best)
	}
}

func TestEngineBeatsRandomSearchOnMultimodal(t *testing.T) {
	// A smooth bimodal surface: a shallow optimum near (0.2, 0.8) and
	// the global one near (0.75, 0.25). BO with 40 evaluations should
	// reliably reach a better value than pure random search with the
	// same budget, because it can descend into the global basin.
	gauss := func(x []float64, cx, cy, w float64) float64 {
		d2 := (x[0]-cx)*(x[0]-cx) + (x[1]-cy)*(x[1]-cy)
		return math.Exp(-d2 / (2 * w * w))
	}
	f := func(x []float64) float64 {
		return 1 - 0.6*gauss(x, 0.2, 0.8, 0.2) - 1.0*gauss(x, 0.75, 0.25, 0.1)
	}
	var boTotal, rsTotal float64
	const trials = 3
	for trial := uint64(0); trial < trials; trial++ {
		e := New(2, Config{Seed: trial})
		rng := sample.NewRNG(trial * 7)
		for _, p := range sample.LHS(10, 2, rng) {
			e.Tell(p, f(p))
		}
		for i := 0; i < 30; i++ {
			x, err := e.Suggest()
			if err != nil {
				t.Fatal(err)
			}
			e.Tell(x, f(x))
		}
		_, boBest, _ := e.Best()

		rsBest := math.Inf(1)
		for _, p := range sample.Uniform(40, 2, sample.NewRNG(trial*13+5)) {
			if v := f(p); v < rsBest {
				rsBest = v
			}
		}
		boTotal += boBest
		rsTotal += rsBest
	}
	if boTotal >= rsTotal {
		t.Errorf("BO mean best %.4f should beat RS mean best %.4f", boTotal/trials, rsTotal/trials)
	}
}

func TestSuggestRequiresObservations(t *testing.T) {
	e := New(2, Config{})
	if _, err := e.Suggest(); err == nil {
		t.Error("Suggest with no data should error")
	}
	e.Tell([]float64{0.5, 0.5}, 1)
	if _, err := e.Suggest(); err == nil {
		t.Error("Suggest with one point should error")
	}
}

func TestSuggestInUnitCube(t *testing.T) {
	e := New(3, Config{Seed: 3})
	rng := sample.NewRNG(3)
	for _, p := range sample.LHS(6, 3, rng) {
		e.Tell(p, p[0]+p[1]*p[2])
	}
	for i := 0; i < 5; i++ {
		x, err := e.Suggest()
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range x {
			if v < 0 || v > 1 {
				t.Fatalf("suggestion coordinate %d out of box: %v", j, x)
			}
		}
		e.Tell(x, x[0])
	}
}

func TestHedgeGainsUpdate(t *testing.T) {
	e := New(2, Config{Seed: 4})
	seedEngine(e, 6, 4)
	if g := e.Gains(); g[0] != 0 || g[1] != 0 || g[2] != 0 {
		t.Fatalf("initial gains %v", g)
	}
	x, err := e.Suggest()
	if err != nil {
		t.Fatal(err)
	}
	e.Tell(x, quadratic(x))
	if _, err := e.Suggest(); err != nil {
		t.Fatal(err)
	}
	g := e.Gains()
	nonzero := false
	for _, v := range g {
		if v != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Errorf("gains never updated: %v", g)
	}
	p := e.Probabilities()
	var sum float64
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", sum)
	}
}

func TestSingleAcquisitionPortfolio(t *testing.T) {
	e := New(2, Config{Portfolio: []Acquisition{EI{Xi: 0.01}}, Seed: 5})
	seedEngine(e, 8, 5)
	for i := 0; i < 10; i++ {
		x, err := e.Suggest()
		if err != nil {
			t.Fatal(err)
		}
		if e.Chosen() != 0 {
			t.Fatal("single-member portfolio must always choose index 0")
		}
		e.Tell(x, quadratic(x))
	}
	_, best, _ := e.Best()
	if best > 0.05 {
		t.Errorf("EI-only best = %v", best)
	}
}

func TestEngineDeterministic(t *testing.T) {
	run := func() []float64 {
		e := New(2, Config{Seed: 6})
		seedEngine(e, 6, 6)
		x, err := e.Suggest()
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed suggested %v and %v", a, b)
		}
	}
}

func TestPortfolioNames(t *testing.T) {
	e := New(2, Config{})
	names := e.PortfolioNames()
	if len(names) != 3 || names[0] != "PI" || names[1] != "EI" || names[2] != "LCB" {
		t.Errorf("names = %v", names)
	}
}

func TestBestTracksMinimum(t *testing.T) {
	e := New(1, Config{})
	e.Tell([]float64{0.1}, 5)
	e.Tell([]float64{0.2}, 2)
	e.Tell([]float64{0.3}, 7)
	x, y, ok := e.Best()
	if !ok || y != 2 || x[0] != 0.2 {
		t.Errorf("Best = %v %v %v", x, y, ok)
	}
}

func TestNewPanicsOnZeroDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) should panic")
		}
	}()
	New(0, Config{})
}

func TestHedgeProbabilitiesShiftFromUniform(t *testing.T) {
	e := New(2, Config{Seed: 10})
	seedEngine(e, 8, 10)
	for i := 0; i < 12; i++ {
		x, err := e.Suggest()
		if err != nil {
			t.Fatal(err)
		}
		e.Tell(x, quadratic(x))
	}
	p := e.Probabilities()
	uniform := true
	for _, v := range p {
		if math.Abs(v-1.0/3) > 0.02 {
			uniform = false
		}
	}
	if uniform {
		t.Errorf("hedge probabilities still uniform after 12 rounds: %v", p)
	}
}

func TestSurrogateReusesHyperparametersBetweenRefits(t *testing.T) {
	e := New(2, Config{Seed: 11})
	seedEngine(e, 10, 11)
	g1, err := e.Surrogate()
	if err != nil {
		t.Fatal(err)
	}
	// One new observation: within the refit window the hyperparameters
	// must be identical (only the posterior is recomputed).
	e.Tell([]float64{0.5, 0.5}, quadratic([]float64{0.5, 0.5}))
	g2, err := e.Surrogate()
	if err != nil {
		t.Fatal(err)
	}
	if g1.Params() != g2.Params() {
		t.Error("hyperparameters refit despite being within the reuse window")
	}
	if g2.N() != g1.N()+1 {
		t.Errorf("posterior not updated: N %d -> %d", g1.N(), g2.N())
	}
}

func TestSuggestAfterManyIdenticalObservations(t *testing.T) {
	// Degenerate data (identical ys) must not break the engine.
	e := New(2, Config{Seed: 12})
	rng := sample.NewRNG(12)
	for _, p := range sample.LHS(10, 2, rng) {
		e.Tell(p, 42)
	}
	x, err := e.Suggest()
	if err != nil {
		t.Fatalf("Suggest on constant data: %v", err)
	}
	for _, v := range x {
		if math.IsNaN(v) {
			t.Fatal("NaN suggestion")
		}
	}
}

func TestForkIsIndependent(t *testing.T) {
	e := New(2, Config{Seed: 20})
	seedEngine(e, 8, 20)
	f := e.Fork()
	if f.N() != e.N() {
		t.Fatalf("fork N = %d, want %d", f.N(), e.N())
	}
	f.Tell([]float64{0.5, 0.5}, 1)
	if f.N() != e.N()+1 {
		t.Error("fork Tell did not grow the fork")
	}
	if e.N() != 8 {
		t.Error("fork Tell leaked into the original")
	}
	_, by, _ := f.Best()
	_, ey, _ := e.Best()
	_ = by
	_ = ey
}

func TestBatchSuggestDiversity(t *testing.T) {
	e := New(2, Config{Seed: 21})
	seedEngine(e, 10, 21)
	batch, err := e.BatchSuggest(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 4 {
		t.Fatalf("batch size = %d", len(batch))
	}
	// The constant liar should spread the batch: no two points
	// essentially identical.
	for i := 0; i < len(batch); i++ {
		for j := i + 1; j < len(batch); j++ {
			d := math.Hypot(batch[i][0]-batch[j][0], batch[i][1]-batch[j][1])
			if d < 1e-4 {
				t.Errorf("batch points %d and %d coincide: %v %v", i, j, batch[i], batch[j])
			}
		}
	}
	// The engine itself is untouched.
	if e.N() != 10 {
		t.Errorf("BatchSuggest modified the engine: N=%d", e.N())
	}
}

func TestBatchSuggestNeedsData(t *testing.T) {
	e := New(2, Config{})
	if _, err := e.BatchSuggest(3); err == nil {
		t.Error("BatchSuggest without observations should error")
	}
}
