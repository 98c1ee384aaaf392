package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/backend"
	_ "repro/internal/backend/backends"
	"repro/internal/bo"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/memo"
	"repro/internal/stats"
	"repro/internal/tuners"
)

// tuningSpec is one ROBOTune workload: which backend and workload
// families run, at what scale and budget, and what set-up leaves in
// the memo store before timing starts.
type tuningSpec struct {
	name     string
	backend  string
	families []string
	dataset  int // 0-based scale index: 0 is D1, 2 is D3
	budget   int
	// rounds always run, whatever --seconds says; round r tunes every
	// family once with seed+r. The quality metrics come from these
	// rounds only, so they never depend on machine speed. More rounds
	// (seed+rounds, ...) run while they fit in --seconds.
	rounds int
	// warmBudget > 0 makes the workload warm: set-up tunes every family
	// at D1 with this budget, and each timed session starts from a copy
	// of that family's store — a selection-cache hit with memoized init
	// points. The warming sessions use a fixed seed: the warm store is
	// the workload's fixture, the same for every --seed, because the
	// selection it caches sets the subspace dimension and with it most
	// of a session's cost.
	warmBudget int
	// warmupBudget is the budget of the untimed warm-up session a cold
	// workload runs in set-up (a warm workload's warming sessions are
	// its warm-up).
	warmupBudget int
	// setups is how many times set-up runs; setup_s is the median.
	setups int
}

func sparkCold() tuningSpec {
	return tuningSpec{
		name:     "spark-cold",
		backend:  "spark",
		families: []string{"PageRank", "KMeans", "ConnectedComponents", "LogisticRegression", "TeraSort"},
		dataset:  0, budget: 50, rounds: 3, warmupBudget: 25, setups: 3,
	}
}

func sparkWarmLong() tuningSpec {
	return tuningSpec{
		name:     "spark-warm-long",
		backend:  "spark",
		families: []string{"TeraSort", "PageRank"},
		dataset:  2, budget: 100, rounds: 2, warmBudget: 60, setups: 3,
	}
}

func clustersimCold() tuningSpec {
	return tuningSpec{
		name:     "clustersim-cold",
		backend:  "clustersim",
		families: []string{"BatchETL", "MLTrain"},
		dataset:  2, budget: 60, rounds: 4, warmupBudget: 25, setups: 3,
	}
}

// tuningSamples is the size of ROBOTune's initial training set (the
// paper's 20). The benchmark sets it explicitly because the traced run
// uses it to tell the BO phase from the init phase.
const tuningSamples = 20

// warmSeed seeds the warming sessions and offsets the warm-up
// sessions' seeds from the timed ones.
const warmSeed = 1 << 20

// tuningOptions is the tuner every tuning workload runs: one driver,
// serial tuner math, paper constants otherwise.
func tuningOptions() core.Options {
	return core.Options{Workers: 1, Parallel: 1, TuningSamples: tuningSamples}
}

// tuningEnv is what set-up leaves behind for the timed sessions.
type tuningEnv struct {
	spec  tuningSpec
	bk    backend.Backend
	space *conf.Space
	dir   string            // journal directory
	warm  map[string][]byte // family → warmed memo store (warm workloads)
}

// sessionResult is one finished tuning session.
type sessionResult struct {
	round  int
	wall   time.Duration
	trials int             // evaluations charged, selection included
	gaps   []time.Duration // decision gaps between tuning-phase evaluations
	res    tuners.Result
	hash   uint64
	// journalBytes is the size of the session's journal at the end.
	journalBytes int64
	refit        bo.RefitStats
}

// setupTuning looks up the backend and runs the set-up sessions: the
// warming sessions of a warm workload, or the warm-up session of a
// cold one. It returns a hash over their results, which must be the
// same every time set-up runs with the same seed.
func setupTuning(spec tuningSpec, seed uint64, dir string) (*tuningEnv, uint64, int, error) {
	bk, err := backend.Lookup(spec.backend)
	if err != nil {
		return nil, 0, 0, err
	}
	env := &tuningEnv{spec: spec, bk: bk, space: bk.Space(), dir: dir}
	h := fnv.New64a()
	if spec.warmBudget <= 0 {
		s, err := env.session(spec.families[0], spec.dataset, spec.warmupBudget, seed+warmSeed, memo.NewStore(), nil, 0)
		if err != nil {
			return nil, 0, 1, err
		}
		writeUint(h, s.hash)
		return env, h.Sum64(), 1, nil
	}
	env.warm = make(map[string][]byte, len(spec.families))
	for i, fam := range spec.families {
		store := memo.NewStore()
		s, err := env.session(fam, 0, spec.warmBudget, warmSeed, store, nil, 0)
		if err != nil {
			return nil, 0, i + 1, err
		}
		writeUint(h, s.hash)
		if env.warm[fam], err = json.Marshal(store); err != nil {
			return nil, 0, i + 1, fmt.Errorf("%s: saving the warmed memo store: %w", fam, err)
		}
	}
	return env, h.Sum64(), len(spec.families), nil
}

// store returns the memo store a timed session of fam starts from: a
// private copy of the warmed store, or an empty one.
func (env *tuningEnv) store(fam string) (*memo.Store, error) {
	store := memo.NewStore()
	if data, ok := env.warm[fam]; ok {
		if err := json.Unmarshal(data, store); err != nil {
			return nil, fmt.Errorf("%s: copying the warmed memo store: %w", fam, err)
		}
	}
	return store, nil
}

// round tunes every family once with seed+r. With a recorder the
// sessions run traced; trace ids continue from firstTrace.
func (env *tuningEnv) round(seed uint64, r int, rec *recorder, firstTrace int64) ([]sessionResult, error) {
	out := make([]sessionResult, 0, len(env.spec.families))
	for i, fam := range env.spec.families {
		store, err := env.store(fam)
		if err != nil {
			return out, err
		}
		s, err := env.session(fam, env.spec.dataset, env.spec.budget, seed+uint64(r), store, rec, firstTrace+int64(i))
		if err != nil {
			return out, err
		}
		s.round = r
		out = append(out, s)
	}
	return out, nil
}

// session runs one journaled ROBOTune session. Without a recorder it
// is the product path, core.ROBOTune.Run; with one it drives the same
// stepper through tuners.Drive under timing decorators, which must
// reproduce Run's trace bit for bit.
func (env *tuningEnv) session(fam string, dataset, budget int, seed uint64, store *memo.Store, rec *recorder, trace int64) (out sessionResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s seed %d: session panicked: %v", fam, seed, p)
		}
	}()
	w, err := env.bk.Workload(fam, dataset)
	if err != nil {
		return out, err
	}
	ev, err := env.bk.NewEvaluator(w, seed, 0, backend.FaultPlan{})
	if err != nil {
		return out, err
	}
	path := filepath.Join(env.dir, fmt.Sprintf("%s-%s-%d-%d.jnl", fam, w.DatasetName(), seed, trace))
	jn, err := journal.Open(path, journal.Meta{
		Seed:      seed,
		Budget:    budget,
		Workload:  w.WorkloadName(),
		Dataset:   w.DatasetName(),
		Tuner:     "ROBOTune",
		SpaceHash: env.space.Fingerprint(),
	}, journal.SyncNone)
	if err != nil {
		return out, err
	}
	defer os.Remove(path + ".snap")
	defer os.Remove(path)
	defer jn.Close() // idempotent; the success path checks the first Close
	te, err := newTimedEvaluator(ev, jn)
	if err != nil {
		return out, err
	}
	rt := core.New(store, tuningOptions())
	s := tuners.NewSession(te, env.space, tuners.Request{Budget: budget, Seed: seed, Journal: jn})

	start := time.Now()
	if rec == nil {
		out.res = rt.Run(s)
	} else {
		root := rec.begin("tuners.drive", trace, 0)
		te.rec, te.trace, te.parent = rec, trace, root
		id := rec.begin("core.start", trace, root)
		st := rt.Stepper(env.space, budget, seed, te.WorkloadName(), te.DatasetName())
		rec.end(id)
		out.res = tuners.Drive(&tracedStepper{Stepper: st, rt: rt, rec: rec, trace: trace, root: root}, s)
		rec.end(root)
	}
	out.wall = time.Since(start)

	jerr := jn.Err()
	if cerr := jn.Close(); jerr == nil {
		jerr = cerr
	}
	if jerr != nil {
		return out, fmt.Errorf("%s seed %d: journal: %w", fam, seed, jerr)
	}
	if fi, err := os.Stat(path); err == nil {
		out.journalBytes = fi.Size()
	}
	out.trials = len(te.evals)
	out.gaps = te.gaps()
	out.hash = resultHash(out.res)
	if rt.LastEngine != nil {
		out.refit = rt.LastEngine.RefitStats()
	}
	return out, nil
}

// fullEvaluator is every capability the benchmark's evaluators have.
type fullEvaluator interface {
	backend.Evaluator
	backend.BatchEvaluator
	backend.Identifiable
	backend.StreamRestorer
	backend.Measurer
	backend.FidelitySupporter
}

// timedEvaluator timestamps every evaluation and, in a traced run,
// records it as a backend span. It forwards every optional capability
// by embedding, so it refuses an evaluator that lacks one instead of
// claiming it: a claimed BatchEvaluator changes the path a tuner takes.
type timedEvaluator struct {
	fullEvaluator
	jn    *journal.Journal
	evals []evalTiming

	rec           *recorder
	trace, parent int64
}

type evalTiming struct {
	start, end time.Time
	tuning     bool // the session was in its init or BO phase
}

func newTimedEvaluator(ev backend.Evaluator, jn *journal.Journal) (*timedEvaluator, error) {
	full, ok := ev.(fullEvaluator)
	if !ok {
		return nil, fmt.Errorf("evaluator %T lacks a capability the timing wrapper forwards", ev)
	}
	return &timedEvaluator{fullEvaluator: full, jn: jn}, nil
}

// EvaluateSpec implements backend.Evaluator. Batch evaluation is
// forwarded untimed: the tuning workloads run with Parallel=1, so
// Drive never batches.
func (t *timedEvaluator) EvaluateSpec(c conf.Config, spec backend.EvalSpec) backend.EvalRecord {
	phase := t.jn.Phase()
	tuning := phase == "init" || phase == "bo"
	var id int64
	if t.rec != nil {
		id = t.rec.begin("backend.eval", t.trace, t.parent)
	}
	start := time.Now()
	rec := t.fullEvaluator.EvaluateSpec(c, spec)
	t.evals = append(t.evals, evalTiming{start: start, end: time.Now(), tuning: tuning})
	if t.rec != nil {
		t.rec.end(id)
	}
	return rec
}

// gaps returns the tuner's think time as the cluster sees it: the idle
// time between the end of one evaluation and the start of the next,
// for every evaluation of the tuning phase. The first gap after the
// selection sweep includes forest training.
func (t *timedEvaluator) gaps() []time.Duration {
	var out []time.Duration
	for i := 1; i < len(t.evals); i++ {
		if t.evals[i].tuning {
			out = append(out, t.evals[i].start.Sub(t.evals[i-1].end))
		}
	}
	return out
}

// tracedStepper times the public calls into the ROBOTune stepper. It
// embeds the stepper, so Drive still finds the Batcher, Extender and
// ResultMaker capabilities; Finish is timed too.
type tracedStepper struct {
	*core.Stepper
	rt          *core.ROBOTune
	rec         *recorder
	trace, root int64
}

// Propose implements tuners.Stepper. In the BO phase — the engine
// holds the full initial training set — it fits the surrogate first,
// in its own span, so the proposal span's self time is acquisition
// alone. Suggest calls Surrogate first thing anyway, so the fit
// cadence and the RNG stream are unchanged.
func (t *tracedStepper) Propose(n int) []tuners.Proposal {
	eng := t.rt.LastEngine
	if eng == nil || eng.N() < tuningSamples {
		id := t.rec.begin("core.propose", t.trace, t.root)
		defer t.rec.end(id)
		return t.Stepper.Propose(n)
	}
	id := t.rec.begin("bo.acquire", t.trace, t.root)
	defer t.rec.end(id)
	fit := t.rec.begin("gp.surrogate", t.trace, id)
	// A failed fit fails again, identically, inside Suggest, which then
	// falls back to a random point.
	_, _ = eng.Surrogate()
	t.rec.end(fit)
	return t.Stepper.Propose(n)
}

// Observe implements tuners.Stepper. The Observe that completes the
// selection sweep trains the forest and builds the BO engine; its span
// is charged to the forest layer.
func (t *tracedStepper) Observe(c conf.Config, rec backend.EvalRecord) {
	selecting := t.rt.LastEngine == nil
	id := t.rec.begin("core.observe", t.trace, t.root)
	t.Stepper.Observe(c, rec)
	if selecting && t.rt.LastEngine != nil {
		t.rec.rename(id, "forest.select")
	}
	t.rec.end(id)
}

// Finish implements tuners.Finisher.
func (t *tracedStepper) Finish(s *tuners.Session) {
	id := t.rec.begin("core.finish", t.trace, t.root)
	t.Stepper.Finish(s)
	t.rec.end(id)
}

// resultHash fingerprints what the determinism contract pins: every
// trace value with its completion flag, and the best configuration.
func resultHash(res tuners.Result) uint64 {
	h := fnv.New64a()
	for i, v := range res.Trace {
		writeUint(h, math.Float64bits(v))
		if i < len(res.Completed) && res.Completed[i] {
			writeUint(h, 1)
		} else {
			writeUint(h, 0)
		}
	}
	writeUint(h, math.Float64bits(res.BestSeconds))
	if res.Found {
		h.Write([]byte(res.Best.Key()))
	}
	return h.Sum64()
}

func writeUint(w io.Writer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.Write(b[:])
}

// runTuning runs a tuning workload: set-up spec.setups times, then the
// timed rounds (or, traced, the quality rounds twice: plain and under
// the timing decorators).
func runTuning(spec tuningSpec, cfg runConfig) *report {
	rep := newReport()
	dir, err := os.MkdirTemp(cfg.workdir, spec.name+"-")
	if err != nil {
		rep.fail(err)
		return rep
	}
	defer os.RemoveAll(dir)

	var env *tuningEnv
	var setupTimes []float64
	var setupHash uint64
	for i := 0; i < spec.setups; i++ {
		start := time.Now()
		e, h, n, err := setupTuning(spec, cfg.seed, dir)
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		rep.ops(n, err)
		if err != nil {
			return rep
		}
		if i == 0 {
			setupHash = h
		} else {
			rep.check(h == setupHash, "set-up %d: set-up sessions differ from set-up 1 under the same seed", i+1)
		}
		env = e
	}
	rep.samples["setups"] = spec.setups
	if cfg.trace {
		traceTuning(env, cfg, rep)
		return rep
	}

	var all []sessionResult
	start := time.Now()
	var last time.Duration
	for r := 0; r < spec.rounds || time.Since(start)+last <= cfg.seconds; r++ {
		t0 := time.Now()
		round, err := env.round(cfg.seed, r, nil, 0)
		all = append(all, round...)
		rep.ops(len(round), nil)
		if err != nil {
			rep.ops(1, err)
			return rep
		}
		last = time.Since(t0)
	}

	var walls, gaps, best, cost []float64
	var trials int
	var wallSum time.Duration
	for _, s := range all {
		walls = append(walls, s.wall.Seconds())
		wallSum += s.wall
		trials += s.trials
		for _, g := range s.gaps {
			gaps = append(gaps, float64(g)/float64(time.Millisecond))
		}
		if s.round >= spec.rounds {
			continue
		}
		rep.check(s.res.Found, "round %d: a session found no completed configuration", s.round)
		best = append(best, s.res.BestSeconds)
		cost = append(cost, s.res.SearchCost)
	}
	rep.set("session_wall_s", stats.Median(walls), "s")
	rep.set("step_ms_p50", stats.Percentile(gaps, 50), "ms")
	rep.set("step_ms_p95", stats.Percentile(gaps, 95), "ms")
	rep.set("steps_per_s", float64(trials)/wallSum.Seconds(), "1/s")
	rep.set("best_found_s", geomean(best), "sim-s")
	rep.set("search_cost_s", geomean(cost), "sim-s")
	rep.set("setup_s", stats.Median(setupTimes), "s")
	rep.samples["sessions"] = len(all)
	rep.samples["quality_sessions"] = len(best)
	rep.samples["steps"] = len(gaps)
	return rep
}

// traceTuning runs the quality rounds plain and then traced, checks
// the two agree bit for bit, and reports the per-layer metrics.
func traceTuning(env *tuningEnv, cfg runConfig, rep *report) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	memStart := time.Now()
	var plain []sessionResult
	for r := 0; r < env.spec.rounds; r++ {
		round, err := env.round(cfg.seed, r, nil, 0)
		plain = append(plain, round...)
		rep.ops(len(round), nil)
		if err != nil {
			rep.ops(1, err)
			return
		}
	}
	memWall := time.Since(memStart)
	runtime.ReadMemStats(&m1)
	rss := peakRSSMB()

	rec := newRecorder()
	var traced []sessionResult
	for r := 0; r < env.spec.rounds; r++ {
		round, err := env.round(cfg.seed, r, rec, int64(len(traced))+1)
		traced = append(traced, round...)
		rep.ops(len(round), nil)
		if err != nil {
			rep.ops(1, err)
			return
		}
	}

	lr := layerInput{spans: rec.snapshot(), memBefore: m0, memAfter: m1, memWall: memWall, peakRSS: rss}
	var plainWall time.Duration
	for i, p := range plain {
		t := traced[i]
		rep.check(p.hash == t.hash, "session %d: traced trace or best configuration differs from the plain run", i)
		plainWall += p.wall
		lr.wall += t.wall
		lr.steps += p.trials
		lr.journalBytes += p.journalBytes
		lr.journalTrials += p.trials
		lr.refit.HyperRefits += t.refit.HyperRefits
		lr.refit.Extends += t.refit.Extends
		lr.refit.PosteriorRefits += t.refit.PosteriorRefits
		lr.refit.RefitSeconds += t.refit.RefitSeconds
	}
	lr.overhead = lr.wall.Seconds()/plainWall.Seconds() - 1
	lr.emit(rep)
	rep.samples["sessions"] = len(traced)
	rep.samples["spans"] = len(lr.spans)
	if cfg.spans != "" {
		rep.ops(1, writeSpans(cfg.spans, lr.spans))
	}
}
