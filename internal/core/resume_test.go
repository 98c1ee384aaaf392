package core

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/backend"
	"repro/internal/conf"
	"repro/internal/journal"
	"repro/internal/sparksim"
	"repro/internal/tuners"
)

// resumeOptions keeps the kill/resume sweep fast while still crossing
// every phase boundary: selection (12 samples), init (6) and a BO tail
// of several rounds.
func resumeOptions() Options {
	o := fastOptions()
	o.GenericSamples = 12
	o.TuningSamples = 6
	o.Forest.Trees = 15
	o.PermuteRepeats = 2
	o.BO.CandidatePool = 32
	return o
}

func resumeMeta(seed uint64, budget int, faults string) journal.Meta {
	return journal.Meta{
		Seed:      seed,
		Budget:    budget,
		Workload:  "TeraSort",
		Dataset:   "D20GB",
		Tuner:     "ROBOTune",
		Cap:       480,
		Faults:    faults,
		SpaceHash: conf.SparkSpace().Fingerprint(),
	}
}

// evalFrameCuts parses the journal's on-disk frames and returns the
// byte offset just past the meta frame and past each eval frame — the
// clean truncation points simulating a crash after exactly k committed
// evaluations.
func evalFrameCuts(t *testing.T, data []byte) []int64 {
	t.Helper()
	var cuts []int64
	off := int64(8) // magic
	for off < int64(len(data)) {
		rest := data[off:]
		n := binary.LittleEndian.Uint32(rest[:4])
		payload := rest[8 : 8+int64(n)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4:8]) {
			t.Fatalf("corrupt frame at %d in a freshly written journal", off)
		}
		var fr struct {
			T string `json:"t"`
		}
		if err := json.Unmarshal(payload, &fr); err != nil {
			t.Fatalf("unparsable frame at %d: %v", off, err)
		}
		off += 8 + int64(n)
		switch fr.T {
		case "meta", "eval":
			cuts = append(cuts, off)
		}
	}
	return cuts
}

type resumeSetup struct {
	opts    Options
	space   *conf.Space // shared: Config.Equal requires one Space instance
	faults  bool
	retries int
	budget  int
	seed    uint64
}

func (rs resumeSetup) evaluator() *sparksim.Evaluator {
	ev := newEvaluator(sparksim.TeraSort(20), rs.seed)
	if rs.faults {
		ev.Faults = sparksim.DefaultFaultPlan()
	}
	return ev
}

func (rs resumeSetup) faultsName() string {
	if rs.faults {
		return sparksim.DefaultFaultPlan().String()
	}
	return backend.FaultPlan{}.String()
}

// run executes one campaign on a fresh evaluator and fresh store,
// journaled when path != "".
func (rs resumeSetup) run(t *testing.T, path string) (tuners.Result, *journal.Journal) {
	t.Helper()
	var jn *journal.Journal
	if path != "" {
		var err error
		jn, err = journal.Open(path, resumeMeta(rs.seed, rs.budget, rs.faultsName()), journal.SyncNone)
		if err != nil {
			t.Fatalf("journal.Open: %v", err)
		}
	}
	r := New(nil, rs.opts)
	res := r.Run(tuners.NewSession(rs.evaluator(), rs.space, tuners.Request{
		Budget:  rs.budget,
		Seed:    rs.seed,
		Retry:   tuners.RetryPolicy{MaxRetries: rs.retries},
		Journal: jn,
	}))
	if jn != nil {
		if err := jn.Close(); err != nil {
			t.Fatalf("journal.Close: %v", err)
		}
	}
	return res, jn
}

func assertSameResult(t *testing.T, label string, got, want tuners.Result) {
	t.Helper()
	if got.Found != want.Found || got.BestSeconds != want.BestSeconds {
		t.Fatalf("%s: best %v/%v, want %v/%v", label, got.Found, got.BestSeconds, want.Found, want.BestSeconds)
	}
	if want.Found && !got.Best.Equal(want.Best) {
		t.Fatalf("%s: best config differs", label)
	}
	if got.Evals != want.Evals || got.SearchCost != want.SearchCost {
		t.Fatalf("%s: evals/cost %d/%v, want %d/%v", label, got.Evals, got.SearchCost, want.Evals, want.SearchCost)
	}
	if got.SelectionEvals != want.SelectionEvals || got.SelectionCost != want.SelectionCost {
		t.Fatalf("%s: selection %d/%v, want %d/%v",
			label, got.SelectionEvals, got.SelectionCost, want.SelectionEvals, want.SelectionCost)
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("%s: trace length %d, want %d", label, len(got.Trace), len(want.Trace))
	}
	for i := range want.Trace {
		if got.Trace[i] != want.Trace[i] {
			t.Fatalf("%s: trace[%d] = %v, want %v", label, i, got.Trace[i], want.Trace[i])
		}
	}
	if got.Failures != want.Failures {
		t.Fatalf("%s: failures %+v, want %+v", label, got.Failures, want.Failures)
	}
	if len(got.SelectedParams) != len(want.SelectedParams) {
		t.Fatalf("%s: selected %v, want %v", label, got.SelectedParams, want.SelectedParams)
	}
	for i := range want.SelectedParams {
		if got.SelectedParams[i] != want.SelectedParams[i] {
			t.Fatalf("%s: selected %v, want %v", label, got.SelectedParams, want.SelectedParams)
		}
	}
	if got.Cancelled {
		t.Fatalf("%s: resumed result marked cancelled", label)
	}
}

// sweepEveryK truncates the full journal to its first k committed
// evaluations, resumes, and checks the result against the
// uninterrupted baseline.
func sweepEveryK(t *testing.T, rs resumeSetup, data []byte, cuts []int64, baseline tuners.Result, stride int) {
	t.Helper()
	for k := 0; k < len(cuts); k += stride {
		path := filepath.Join(t.TempDir(), "resume.jnl")
		if err := os.WriteFile(path, data[:cuts[k]], 0o644); err != nil {
			t.Fatal(err)
		}
		jn, err := journal.Open(path, resumeMeta(rs.seed, rs.budget, rs.faultsName()), journal.SyncNone)
		if err != nil {
			t.Fatalf("k=%d: reopen: %v", k, err)
		}
		if got := jn.ReplayPending(); got != k {
			t.Fatalf("k=%d: %d records pending", k, got)
		}
		r := New(nil, rs.opts)
		res := r.Run(tuners.NewSession(rs.evaluator(), rs.space, tuners.Request{
			Budget:  rs.budget,
			Seed:    rs.seed,
			Retry:   tuners.RetryPolicy{MaxRetries: rs.retries},
			Journal: jn,
		}))
		if reason := jn.Diverged(); reason != "" {
			t.Fatalf("k=%d: replay diverged: %s", k, reason)
		}
		jn.Close()
		assertSameResult(t, "k="+itoa(k), res, baseline)
	}
}

func itoa(k int) string {
	if k == 0 {
		return "0"
	}
	var b []byte
	for k > 0 {
		b = append([]byte{byte('0' + k%10)}, b...)
		k /= 10
	}
	return string(b)
}

// TestResumeBitIdenticalEveryK is the headline durability guarantee:
// kill the campaign after any k committed evaluations, resume from the
// journal alone, and the final result is bit-identical to the
// uninterrupted run at the same seed.
func TestResumeBitIdenticalEveryK(t *testing.T) {
	rs := resumeSetup{opts: resumeOptions(), space: conf.SparkSpace(), budget: 14, seed: 11}
	baseline, _ := rs.run(t, "")
	if !baseline.Found {
		t.Fatal("baseline found nothing")
	}

	full := filepath.Join(t.TempDir(), "full.jnl")
	journaled, jn := rs.run(t, full)
	assertSameResult(t, "journaled-uninterrupted", journaled, baseline)
	if _, ok := jn.Done(); !ok {
		t.Fatal("finished journaled run left no done record")
	}

	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	cuts := evalFrameCuts(t, data)
	wantRecords := baseline.SelectionEvals + len(baseline.Trace) - baseline.Failures.Retries
	if len(cuts)-1 != wantRecords {
		t.Fatalf("journal holds %d eval records, want %d", len(cuts)-1, wantRecords)
	}
	sweepEveryK(t, rs, data, cuts, baseline, 1)
}

// TestResumeUnderFaults repeats the sweep on a faulty cluster with
// retries enabled: the journaled stream positions must carry the
// multi-attempt index consumption across the crash.
func TestResumeUnderFaults(t *testing.T) {
	rs := resumeSetup{opts: resumeOptions(), space: conf.SparkSpace(), faults: true, retries: 2, budget: 12, seed: 23}
	baseline, _ := rs.run(t, "")
	full := filepath.Join(t.TempDir(), "full.jnl")
	journaled, _ := rs.run(t, full)
	assertSameResult(t, "journaled-uninterrupted", journaled, baseline)
	if baseline.Failures.Transient == 0 {
		t.Fatal("fault plan injected no transients; sweep is not exercising retries")
	}

	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	sweepEveryK(t, rs, data, evalFrameCuts(t, data), baseline, 3)
}

// TestResumeParallelBatch repeats the sweep with concurrent selection
// waves and tuner worker parallelism: a crash mid-wave replays the
// committed prefix and lands the live remainder on exactly the
// evaluation indices the original wave reserved. Both settings are
// result-neutral, so the parallel baseline must equal the serial run.
func TestResumeParallelBatch(t *testing.T) {
	o := resumeOptions()
	o.Parallel = 4
	o.Workers = 4
	rs := resumeSetup{opts: o, space: conf.SparkSpace(), budget: 12, seed: 31}
	baseline, _ := rs.run(t, "")
	if !baseline.Found {
		t.Fatal("parallel baseline found nothing")
	}
	serial := rs
	serial.opts.Parallel, serial.opts.Workers = 1, 1
	want, _ := serial.run(t, "")
	assertSameResult(t, "parallel vs serial", baseline, want)

	full := filepath.Join(t.TempDir(), "full.jnl")
	journaled, _ := rs.run(t, full)
	assertSameResult(t, "journaled-uninterrupted", journaled, baseline)

	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	sweepEveryK(t, rs, data, evalFrameCuts(t, data), baseline, 2)
}

// TestResumeParallelBatchUnderFaults cuts a faulty parallel run after
// every committed evaluation, including cuts inside a batch. Without
// retries the batch runs concurrently; with retries it falls back to
// one trial at a time. Either way each journal entry must carry the
// ledger after its own trial only, so a mid-batch resume reproduces
// the uninterrupted failure ledger exactly.
func TestResumeParallelBatchUnderFaults(t *testing.T) {
	for _, retries := range []int{0, 2} {
		t.Run("retries="+itoa(retries), func(t *testing.T) {
			o := resumeOptions()
			o.Parallel = 4
			o.Workers = 4
			rs := resumeSetup{opts: o, space: conf.SparkSpace(), faults: true, retries: retries, budget: 12, seed: 23}
			baseline, _ := rs.run(t, "")
			if baseline.Failures.Transient == 0 {
				t.Fatal("fault plan injected no transients; sweep is not exercising the ledger")
			}
			full := filepath.Join(t.TempDir(), "full.jnl")
			journaled, _ := rs.run(t, full)
			assertSameResult(t, "journaled-uninterrupted", journaled, baseline)

			data, err := os.ReadFile(full)
			if err != nil {
				t.Fatal(err)
			}
			sweepEveryK(t, rs, data, evalFrameCuts(t, data), baseline, 1)
		})
	}
}

// countingEvaluator counts live objective calls; a resume of a
// completed journal must make none.
type countingEvaluator struct {
	*sparksim.Evaluator
	calls int
}

// EvaluateSpec keeps the call counter on the unified entry point the
// session actually routes through.
func (c *countingEvaluator) EvaluateSpec(cfg conf.Config, spec backend.EvalSpec) backend.EvalRecord {
	c.calls++
	return c.Evaluator.EvaluateSpec(cfg, spec)
}

// TestResumeCompletedJournal replays a finished session end-to-end:
// same result and zero new objective evaluations.
func TestResumeCompletedJournal(t *testing.T) {
	rs := resumeSetup{opts: resumeOptions(), space: conf.SparkSpace(), budget: 10, seed: 41}
	full := filepath.Join(t.TempDir(), "full.jnl")
	baseline, _ := rs.run(t, full)
	if !baseline.Found {
		t.Fatal("baseline found nothing")
	}

	jn, err := journal.Open(full, resumeMeta(rs.seed, rs.budget, rs.faultsName()), journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	ce := &countingEvaluator{Evaluator: rs.evaluator()}
	r := New(nil, rs.opts)
	res := r.Run(tuners.NewSession(ce, rs.space, tuners.Request{
		Budget: rs.budget, Seed: rs.seed, Journal: jn,
	}))
	jn.Close()
	assertSameResult(t, "completed-resume", res, baseline)
	if ce.calls != 0 {
		t.Fatalf("resuming a completed journal ran %d live evaluations", ce.calls)
	}
}

// TestResumeAfterGracefulCancel interrupts a journaled session via its
// context (the SIGINT path) at several depths, then resumes from the
// journal the interrupted run left behind.
func TestResumeAfterGracefulCancel(t *testing.T) {
	rs := resumeSetup{opts: resumeOptions(), space: conf.SparkSpace(), budget: 12, seed: 53}
	baseline, _ := rs.run(t, "")
	for _, after := range []int{3, 9, 14, 16} {
		path := filepath.Join(t.TempDir(), "cancel.jnl")
		jn, err := journal.Open(path, resumeMeta(rs.seed, rs.budget, rs.faultsName()), journal.SyncNone)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		obj := &cancellingObjective{Evaluator: rs.evaluator(), after: after, cancel: cancel}
		r := New(nil, rs.opts)
		partial := r.Run(tuners.NewSession(obj, rs.space, tuners.Request{
			Ctx: ctx, Budget: rs.budget, Seed: rs.seed, Journal: jn,
		}))
		if !partial.Cancelled {
			t.Fatalf("after=%d: session was not cancelled", after)
		}
		if _, ok := jn.Done(); ok {
			t.Fatalf("after=%d: cancelled session wrote a done record", after)
		}
		jn.Close()
		cancel()

		jn2, err := journal.Open(path, resumeMeta(rs.seed, rs.budget, rs.faultsName()), journal.SyncNone)
		if err != nil {
			t.Fatalf("after=%d: reopen: %v", after, err)
		}
		r2 := New(nil, rs.opts)
		res := r2.Run(tuners.NewSession(rs.evaluator(), rs.space, tuners.Request{
			Budget: rs.budget, Seed: rs.seed, Journal: jn2,
		}))
		if reason := jn2.Diverged(); reason != "" {
			t.Fatalf("after=%d: replay diverged: %s", after, reason)
		}
		jn2.Close()
		assertSameResult(t, "cancel-after-"+itoa(after), res, baseline)
	}
}

// TestResumeDivergenceRecovers: resuming with different tuner options
// (not covered by the journal meta) must not replay a stale tail — the
// session detects the mismatch, truncates it, and finishes live.
func TestResumeDivergenceRecovers(t *testing.T) {
	rs := resumeSetup{opts: resumeOptions(), space: conf.SparkSpace(), budget: 10, seed: 61}
	full := filepath.Join(t.TempDir(), "full.jnl")
	rs.run(t, full)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	cuts := evalFrameCuts(t, data)
	path := filepath.Join(t.TempDir(), "diverge.jnl")
	if err := os.WriteFile(path, data[:cuts[5]], 0o644); err != nil {
		t.Fatal(err)
	}
	jn, err := journal.Open(path, resumeMeta(rs.seed, rs.budget, rs.faultsName()), journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	altered := rs
	altered.opts.GenericSamples = 11 // different LHS design → different configs
	r := New(nil, altered.opts)
	res := r.Run(tuners.NewSession(rs.evaluator(), rs.space, tuners.Request{
		Budget: rs.budget, Seed: rs.seed, Journal: jn,
	}))
	if jn.Diverged() == "" {
		t.Fatal("differing options replayed without detecting divergence")
	}
	jn.Close()
	if !res.Found {
		t.Fatal("diverged session did not finish live")
	}
	// The stale tail is gone: a fresh open replays only what the live
	// session committed, and the next resume is clean.
	jn2, err := journal.Open(path, resumeMeta(rs.seed, rs.budget, rs.faultsName()), journal.SyncNone)
	if err != nil {
		t.Fatalf("reopen after divergence: %v", err)
	}
	defer jn2.Close()
	if jn2.ReplayPending() == 0 {
		t.Fatal("diverged session committed nothing")
	}
}

// TestResumeUnderChangedSelectionOptions: a session cancelled after
// its selection sweep and resumed under selection options the journal
// meta does not cover must re-derive the selection from the replayed
// samples, detect that the journaled init trials no longer match, and
// then behave exactly like a fresh run under the new options — never
// continue on the stale selection.
func TestResumeUnderChangedSelectionOptions(t *testing.T) {
	rs := resumeSetup{opts: resumeOptions(), space: conf.SparkSpace(), budget: 12, seed: 61}
	changed := rs
	changed.opts.ImportanceThreshold = 0.5
	changed.opts.MinSelected = 2
	changed.opts.MaxSelected = 2
	fresh, _ := changed.run(t, "")

	path := filepath.Join(t.TempDir(), "cancel.jnl")
	jn, err := journal.Open(path, resumeMeta(rs.seed, rs.budget, rs.faultsName()), journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obj := &cancellingObjective{Evaluator: rs.evaluator(), after: rs.opts.GenericSamples + 2, cancel: cancel}
	partial := New(nil, rs.opts).Run(tuners.NewSession(obj, rs.space, tuners.Request{
		Ctx: ctx, Budget: rs.budget, Seed: rs.seed, Journal: jn,
	}))
	jn.Close()
	if !partial.Cancelled {
		t.Fatal("session was not cancelled")
	}
	if slices.Equal(partial.SelectedParams, fresh.SelectedParams) {
		t.Fatalf("both option sets select %v; the test needs differing selections", fresh.SelectedParams)
	}

	jn2, err := journal.Open(path, resumeMeta(rs.seed, rs.budget, rs.faultsName()), journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	res := New(nil, changed.opts).Run(tuners.NewSession(rs.evaluator(), rs.space, tuners.Request{
		Budget: rs.budget, Seed: rs.seed, Journal: jn2,
	}))
	reason := jn2.Diverged()
	jn2.Close()
	if reason == "" {
		t.Fatal("resume under changed selection options replayed the init trials of the stale selection")
	}
	assertSameResult(t, "changed-selection-resume", res, fresh)
}
