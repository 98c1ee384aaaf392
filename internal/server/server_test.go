package server_test

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/cli"
	"repro/internal/server"
)

// testSpaceJSON is a small 3-parameter space so sessions complete in
// milliseconds.
func testSpaceJSON() json.RawMessage {
	return json.RawMessage(`{
	  "system": "cache",
	  "params": [
	    {"name": "size_mb", "type": "int", "min": 64, "max": 4096, "log": true, "default": 256},
	    {"name": "ttl", "type": "float", "min": 0.1, "max": 60, "default": 5},
	    {"name": "policy", "type": "categorical", "choices": ["lru", "lfu", "arc"], "default": "lru"}
	  ]
	}`)
}

// objective is the test stand-in cluster: a deterministic function of
// the configuration alone, so re-evaluating a config after a crash or
// an eviction reproduces the same measurement.
func objective(cfg map[string]float64) (seconds float64, completed bool) {
	s := 10 + math.Abs(cfg["size_mb"]-1500)/100 + math.Abs(cfg["ttl"]-30) + 3*cfg["policy"]
	return s, true
}

type testEnv struct {
	srv *server.Server
	ts  *httptest.Server
	cl  *client.Client
}

func newEnv(t *testing.T, opts server.Options) *testEnv {
	t.Helper()
	srv := server.New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown()
	})
	return &testEnv{srv: srv, ts: ts, cl: client.New(ts.URL)}
}

func spec(tuner string, budget int, seed uint64) client.SessionSpec {
	return client.SessionSpec{
		Tuner:  tuner,
		Space:  testSpaceJSON(),
		Budget: budget,
		Seed:   seed,
		Options: client.SpecOptions{
			// Small ROBOTune models so the robotune kind stays fast; the
			// baselines ignore this.
			GenericSamples: 10, TuningSamples: 5, PermuteRepeats: 2, Workers: 1,
		},
	}
}

// drive runs a session to completion through the wire protocol and
// returns the number of observations delivered.
func drive(t *testing.T, sess *client.Session) int {
	t.Helper()
	delivered := 0
	for i := 0; i < 10_000; i++ {
		props, done, err := sess.Propose(0)
		if err != nil {
			t.Fatalf("propose: %v", err)
		}
		// done can arrive alongside a final batch (batch steppers hand
		// out their whole budget before the first observation): process
		// proposals first, stop only on an empty done response.
		if len(props) == 0 {
			if done {
				return delivered
			}
			t.Fatalf("stepper idle with nothing outstanding after %d observations", delivered)
		}
		for _, p := range props {
			sec, ok := objective(p.Config)
			// A reduced-fidelity proposal runs a scaled-down workload:
			// shrink the measurement accordingly and echo the fidelity
			// back, as the protocol requires.
			if p.FidelityInput > 0 && p.FidelityInput < 1 {
				sec *= p.FidelityInput
			}
			obs := client.Observation{
				Config: p.Config, Seconds: sec, Completed: ok,
				Cap: p.Cap, FidelityInput: p.FidelityInput, FidelityStage: p.FidelityStage,
			}
			if _, err := sess.Observe(obs); err != nil {
				t.Fatalf("observe: %v", err)
			}
			delivered++
		}
	}
	t.Fatal("session did not finish within 10000 rounds")
	return delivered
}

// TestLifecycleAllTuners runs every tuner kind through the full wire
// lifecycle: create, propose/observe to completion, status, finish.
func TestLifecycleAllTuners(t *testing.T) {
	env := newEnv(t, server.Options{JournalDir: t.TempDir()})
	for _, kind := range cli.TunerKinds() {
		t.Run(kind, func(t *testing.T) {
			sess, err := env.cl.Create(spec(kind, 12, 7))
			if err != nil {
				t.Fatal(err)
			}
			n := drive(t, sess)
			if n == 0 {
				t.Fatal("no observations delivered")
			}
			st, err := sess.Status()
			if err != nil {
				t.Fatal(err)
			}
			if !st.Done || !st.Found {
				t.Fatalf("status after completion: done=%v found=%v", st.Done, st.Found)
			}
			if st.Trials != n {
				t.Fatalf("trials=%d, delivered %d observations", st.Trials, n)
			}
			res, err := sess.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Found || res.BestSeconds <= 0 {
				t.Fatalf("result: %+v", res)
			}
			if res.BestSeconds != st.BestSeconds {
				t.Fatalf("finish best %v != status best %v", res.BestSeconds, st.BestSeconds)
			}
		})
	}
}

// TestSpecValidation rejects malformed session specs with 400s.
func TestSpecValidation(t *testing.T) {
	env := newEnv(t, server.Options{})
	bad := []string{
		``,
		`{`,
		`{"tuner":"robotune"}`, // no space, no budget
		`{"tuner":"nope","space":"spark","budget":5}`,          // unknown tuner
		`{"tuner":"randomsearch","space":"mars","budget":5}`,   // unknown space
		`{"tuner":"randomsearch","space":"spark","budget":0}`,  // zero budget
		`{"tuner":"randomsearch","space":"spark","budget":-3}`, // negative budget
		`{"tuner":"randomsearch","space":"spark","budget":99999999999}`,
		`{"tuner":"randomsearch","space":"spark","budget":5,"sync":"sometimes"}`,
		`{"tuner":"randomsearch","space":"spark","budget":5,"bogus":1}`, // unknown field
		`{"tuner":"randomsearch","space":{"system":"x","params":[]},"budget":5}`,
		`{"tuner":"randomsearch","space":"spark","budget":5,"options":{"workers":-1}}`,
		`{"tuner":"robotune","space":"spark","budget":5,"options":{"refit_budget":1}}`,    // budget fraction must be < 1
		`{"tuner":"robotune","space":"spark","budget":5,"options":{"refit_budget":-0.1}}`, // ... and non-negative
		`{"tuner":"robotune","space":"spark","budget":5,"options":{"sparse_threshold":-1}}`,
	}
	for _, body := range bad {
		resp, err := http.Post(env.ts.URL+"/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("spec %q: got %d, want 400", body, resp.StatusCode)
		}
	}
	if got := env.srv.Metrics().SessionsCreated.Load(); got != 0 {
		t.Fatalf("%d sessions created from invalid specs", got)
	}
}

// TestDecodersRejectTrailingData: every wire decoder accepts one JSON
// value and refuses a body that carries anything after it.
func TestDecodersRejectTrailingData(t *testing.T) {
	for _, tc := range []struct {
		name   string
		body   string
		decode func([]byte) error
	}{
		{"spec", `{"tuner":"randomsearch","space":"spark","budget":5}`, func(b []byte) error {
			_, err := server.DecodeSessionSpec(b)
			return err
		}},
		{"propose", `{"n":1}`, func(b []byte) error {
			_, err := server.DecodeProposeRequest(b)
			return err
		}},
		{"propose-reclaim", `{"n":1,"reclaim":true}`, func(b []byte) error {
			_, err := server.DecodeProposeRequest(b)
			return err
		}},
		{"observe", `{"observations":[{"config":{"size_mb":256},"seconds":1}]}`, func(b []byte) error {
			_, err := server.DecodeObserveBody(b)
			return err
		}},
		{"observe-next", `{"observations":[{"config":{"size_mb":256},"seconds":1}],"next":2}`, func(b []byte) error {
			_, err := server.DecodeObserveBody(b)
			return err
		}},
	} {
		if err := tc.decode([]byte(tc.body)); err != nil {
			t.Errorf("%s: valid body %s rejected: %v", tc.name, tc.body, err)
		}
		for _, tail := range []string{tc.body, " garbage", "\n[]", "}", " ]"} {
			if body := tc.body + tail; tc.decode([]byte(body)) == nil {
				t.Errorf("%s: body with trailing data accepted: %s", tc.name, body)
			}
		}
	}
}

// TestDecodeProposeReclaim: reclaim is an optional boolean beside n,
// and n keeps its cap whatever reclaim says.
func TestDecodeProposeReclaim(t *testing.T) {
	for _, tc := range []struct {
		body string
		want server.ProposeRequest
		ok   bool
	}{
		{``, server.ProposeRequest{}, true},
		{`{"reclaim":true}`, server.ProposeRequest{Reclaim: true}, true},
		{`{"n":3,"reclaim":false}`, server.ProposeRequest{N: 3}, true},
		{`{"n":3,"reclaim":true}`, server.ProposeRequest{N: 3, Reclaim: true}, true},
		{`{"n":5000,"reclaim":true}`, server.ProposeRequest{N: server.MaxBatch, Reclaim: true}, true},
		{`{"reclaim":1}`, server.ProposeRequest{}, false},
		{`{"reclaim":"yes"}`, server.ProposeRequest{}, false},
		{`{"reclaim":true,"next":1}`, server.ProposeRequest{}, false},
		{`{"reclaim":true}{"reclaim":false}`, server.ProposeRequest{}, false},
		{`{"reclaim":true} x`, server.ProposeRequest{}, false},
	} {
		got, err := server.DecodeProposeRequest([]byte(tc.body))
		if (err == nil) != tc.ok || err == nil && got != tc.want {
			t.Errorf("decode %q = %+v, %v; want %+v, ok=%v", tc.body, got, err, tc.want, tc.ok)
		}
	}
}

// TestObserveProtocolErrors: observations that violate the ask/tell
// protocol 4xx and leave the session usable.
func TestObserveProtocolErrors(t *testing.T) {
	env := newEnv(t, server.Options{})
	sess, err := env.cl.Create(spec("randomsearch", 8, 3))
	if err != nil {
		t.Fatal(err)
	}

	// Observe without any proposal: 409.
	_, err = sess.Observe(client.Observation{Config: map[string]float64{"size_mb": 256, "ttl": 5, "policy": 0}, Seconds: 1, Completed: true})
	if !client.IsConflict(err) {
		t.Fatalf("observe-without-propose: %v, want conflict", err)
	}

	props, _, err := sess.Propose(1)
	if err != nil || len(props) != 1 {
		t.Fatalf("propose: %v %v", props, err)
	}
	p := props[0]

	// Out-of-space config: 400.
	_, err = sess.Observe(client.Observation{Config: map[string]float64{"nope": 1}, Seconds: 1, Completed: true})
	var ae *client.APIError
	if err == nil {
		t.Fatal("out-of-space observe accepted")
	}
	if ae = err.(*client.APIError); ae.Status != 400 && ae.Status != 409 {
		t.Fatalf("out-of-space observe: %v", err)
	}

	// Raw malformed bodies: NaN/Inf, negative seconds, empty batches.
	for _, body := range []string{
		`{"observations":[]}`,
		`{"observations":[{"config":{},"seconds":1,"completed":true}]}`,
		`{"observations":[{"config":{"size_mb":256,"ttl":5,"policy":0},"seconds":-1,"completed":true}]}`,
		`{"observations":[{"config":{"size_mb":256,"ttl":5,"policy":0},"seconds":1e999,"completed":true}]}`,
		`{"observations":[{"config":{"size_mb":NaN,"ttl":5,"policy":0},"seconds":1,"completed":true}]}`,
		`not json`,
	} {
		resp, err := http.Post(env.ts.URL+"/v1/sessions/"+sess.ID+"/observe", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("body %q: got %d, want 400", body, resp.StatusCode)
		}
	}

	// The pending proposal is still observable after all that abuse.
	sec, ok := objective(p.Config)
	if _, err := sess.Observe(client.Observation{Config: p.Config, Seconds: sec, Completed: ok}); err != nil {
		t.Fatalf("valid observe after protocol abuse: %v", err)
	}
	// ... exactly once: the duplicate 409s.
	_, err = sess.Observe(client.Observation{Config: p.Config, Seconds: sec, Completed: ok})
	if !client.IsConflict(err) {
		t.Fatalf("double observe: %v, want conflict", err)
	}
}

// TestFinishedSession: a sealed session stays queryable, rejects
// observations with 410, and survives rehydration as sealed — with
// nothing outstanding and nothing to hand out, even when the proposal
// it left unanswered precedes the observed one.
func TestFinishedSession(t *testing.T) {
	for _, tc := range []struct {
		name           string
		observed, left int // indices into a 2-proposal batch
	}{
		{"in-order", 0, 1},
		{"out-of-order", 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			env := newEnv(t, server.Options{JournalDir: dir})
			sess, err := env.cl.Create(spec("randomsearch", 20, 5))
			if err != nil {
				t.Fatal(err)
			}
			props, _, err := sess.Propose(2)
			if err != nil || len(props) != 2 {
				t.Fatalf("propose: %v %v", props, err)
			}
			sec, ok := objective(props[tc.observed].Config)
			if _, err := sess.Observe(client.Observation{Config: props[tc.observed].Config, Seconds: sec, Completed: ok}); err != nil {
				t.Fatal(err)
			}
			// Early finish, mid-campaign: the client owns the decision.
			res, err := sess.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Found || res.Trials != 1 {
				t.Fatalf("early finish result: %+v", res)
			}

			// The session rehydrates sealed from its journal's done record.
			st, err := sess.Status()
			if err != nil {
				t.Fatalf("status after finish: %v", err)
			}
			if !st.Done || !st.Resumed {
				t.Fatalf("rehydrated finished session: done=%v resumed=%v", st.Done, st.Resumed)
			}
			if st.Outstanding != 0 || st.Unclaimed != 0 {
				t.Fatalf("sealed session reports outstanding=%d unclaimed=%d, want 0/0", st.Outstanding, st.Unclaimed)
			}
			// A sealed session hands out nothing.
			again, done, err := sess.Propose(0)
			if err != nil || len(again) != 0 || !done {
				t.Fatalf("propose into a sealed session: %d proposals, done=%v, %v", len(again), done, err)
			}
			// Observing into it is 410, not a resurrection.
			_, err = sess.Observe(client.Observation{Config: props[tc.left].Config, Seconds: 1, Completed: true})
			if !client.IsFinished(err) {
				t.Fatalf("observe after finish: %v, want 410", err)
			}
			// A second finish returns the same sealed result.
			res2, err := sess.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if res2.Found != res.Found || res2.BestSeconds != res.BestSeconds || res2.Evals != res.Evals {
				t.Fatalf("re-finish drifted: %+v vs %+v", res2, res)
			}
		})
	}
}

// TestSkippedProposals: a skip advances the tuner without charging an
// evaluation, and the session still completes.
func TestSkippedProposals(t *testing.T) {
	env := newEnv(t, server.Options{JournalDir: t.TempDir()})
	sess, err := env.cl.Create(spec("randomsearch", 6, 11))
	if err != nil {
		t.Fatal(err)
	}
	skipped, observed := 0, 0
	for i := 0; i < 1000; i++ {
		props, done, err := sess.Propose(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(props) == 0 {
			if !done {
				t.Fatal("stepper idle with nothing outstanding")
			}
			break
		}
		for j, p := range props {
			if j%2 == 1 {
				if _, err := sess.Skip(p.Config); err != nil {
					t.Fatalf("skip: %v", err)
				}
				skipped++
				continue
			}
			sec, ok := objective(p.Config)
			if _, err := sess.Observe(client.Observation{Config: p.Config, Seconds: sec, Completed: ok}); err != nil {
				t.Fatal(err)
			}
			observed++
		}
	}
	if skipped == 0 {
		t.Fatal("nothing was skipped")
	}
	st, err := sess.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Evals != observed {
		t.Fatalf("evals=%d, want %d (skips must not be charged)", st.Evals, observed)
	}
	if st.Trials != observed {
		t.Fatalf("trials=%d, want %d (skips are not trials)", st.Trials, observed)
	}
}

// TestTenantSessionCap: the per-tenant live-session cap 429s, and is
// per tenant.
func TestTenantSessionCap(t *testing.T) {
	env := newEnv(t, server.Options{TenantSessions: 2})
	a := client.New(env.ts.URL)
	a.Tenant = "alice"
	if _, err := a.Create(spec("randomsearch", 5, 1)); err != nil {
		t.Fatal(err)
	}
	s2, err := a.Create(spec("randomsearch", 5, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Create(spec("randomsearch", 5, 3)); !client.IsThrottled(err) {
		t.Fatalf("third session: %v, want 429", err)
	}
	b := client.New(env.ts.URL)
	b.Tenant = "bob"
	if _, err := b.Create(spec("randomsearch", 5, 4)); err != nil {
		t.Fatalf("other tenant throttled: %v", err)
	}
	// Finishing frees a slot.
	if _, err := s2.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Create(spec("randomsearch", 5, 5)); err != nil {
		t.Fatalf("create after finish: %v", err)
	}
}

// TestMaxSessionsCap: the global cap 429s across tenants.
func TestMaxSessionsCap(t *testing.T) {
	env := newEnv(t, server.Options{MaxSessions: 2})
	for i := 0; i < 2; i++ {
		if _, err := env.cl.Create(spec("randomsearch", 5, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	other := client.New(env.ts.URL)
	other.Tenant = "someone-else"
	if _, err := other.Create(spec("randomsearch", 5, 9)); !client.IsThrottled(err) {
		t.Fatalf("create past global cap: %v, want 429", err)
	}
}

// TestTenantEvalRate: the observation token bucket throttles whole
// batches and refills with the (injected) clock.
func TestTenantEvalRate(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	env := newEnv(t, server.Options{TenantEvalsPerSec: 2, TenantBurst: 3, Now: clock})
	sess, err := env.cl.Create(spec("randomsearch", 50, 1))
	if err != nil {
		t.Fatal(err)
	}
	props, _, err := sess.Propose(10)
	if err != nil || len(props) < 8 {
		t.Fatalf("propose: %d proposals, %v", len(props), err)
	}
	obs := func(i int) client.Observation {
		sec, ok := objective(props[i].Config)
		return client.Observation{Config: props[i].Config, Seconds: sec, Completed: ok}
	}
	// A batch over the burst is rejected whole — nothing applied.
	if _, err := sess.Observe(obs(0), obs(1), obs(2), obs(3)); !client.IsThrottled(err) {
		t.Fatalf("burst-exceeding batch: %v, want 429", err)
	}
	// The burst itself fits.
	if _, err := sess.Observe(obs(0), obs(1), obs(2)); err != nil {
		t.Fatalf("burst-sized batch after throttle: %v", err)
	}
	// The bucket is empty now.
	if _, err := sess.Observe(obs(3)); !client.IsThrottled(err) {
		t.Fatalf("observe on empty bucket: %v, want 429", err)
	}
	// The (fake) clock refills it at 2 tokens/s.
	advance(time.Second)
	if _, err := sess.Observe(obs(3), obs(4)); err != nil {
		t.Fatalf("observe after refill: %v", err)
	}
	if got := env.srv.Metrics().Throttled.Load(); got != 2 {
		t.Fatalf("throttled counter = %d, want 2", got)
	}
}

// TestEvictionAndRehydration: an idle session is evicted (journal
// closed, memory released) and the next touch rebuilds it from disk —
// including proposals that were in flight when it was evicted.
func TestEvictionAndRehydration(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	env := newEnv(t, server.Options{JournalDir: t.TempDir(), IdleTTL: time.Minute, Now: clock})
	sess, err := env.cl.Create(spec("randomsearch", 10, 21))
	if err != nil {
		t.Fatal(err)
	}
	// Deliver three observations, then leave one proposal in flight.
	for i := 0; i < 3; i++ {
		props, _, err := sess.Propose(1)
		if err != nil || len(props) != 1 {
			t.Fatalf("propose: %v %v", props, err)
		}
		sec, ok := objective(props[0].Config)
		if _, err := sess.Observe(client.Observation{Config: props[0].Config, Seconds: sec, Completed: ok}); err != nil {
			t.Fatal(err)
		}
	}
	// Two proposals in flight; only the second gets observed. The
	// first is exactly the shape a crash leaves behind: handed out,
	// never answered, and absent from the journal.
	inflight, _, err := sess.Propose(2)
	if err != nil || len(inflight) != 2 {
		t.Fatalf("propose in-flight: %v %v", inflight, err)
	}
	sec2, ok2 := objective(inflight[1].Config)
	if _, err := sess.Observe(client.Observation{Config: inflight[1].Config, Seconds: sec2, Completed: ok2}); err != nil {
		t.Fatal(err)
	}

	advance(2 * time.Minute)
	if n := env.srv.Store().EvictIdle(time.Minute); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	if live := env.srv.Metrics().SessionsLive.Load(); live != 0 {
		t.Fatalf("sessions live after eviction: %d", live)
	}

	// Touching the session rehydrates it from the journal.
	st, err := sess.Status()
	if err != nil {
		t.Fatalf("status after eviction: %v", err)
	}
	if !st.Resumed || st.Trials != 4 {
		t.Fatalf("rehydrated: resumed=%v trials=%d, want resumed with 4 trials", st.Resumed, st.Trials)
	}
	if st.Unclaimed != 1 {
		t.Fatalf("unclaimed=%d, want 1 (the unanswered in-flight proposal)", st.Unclaimed)
	}
	// The next propose re-serves the lost in-flight proposal first.
	again, _, err := sess.Propose(1)
	if err != nil || len(again) != 1 {
		t.Fatalf("propose after rehydration: %v %v", again, err)
	}
	if fmt.Sprint(again[0].Config) != fmt.Sprint(inflight[0].Config) {
		t.Fatalf("reclaimed proposal %v != lost in-flight proposal %v", again[0].Config, inflight[0].Config)
	}
	// The observation that crashed with the old handout still lands.
	sec, ok := objective(again[0].Config)
	if _, err := sess.Observe(client.Observation{Config: again[0].Config, Seconds: sec, Completed: ok}); err != nil {
		t.Fatal(err)
	}
	drive(t, sess)
	if _, err := sess.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := env.srv.Metrics().SessionsRehydrated.Load(); got != 1 {
		t.Fatalf("rehydrated counter = %d, want 1", got)
	}
}

// TestRestartResume: shutting the server down and starting a fresh one
// on the same journal directory resumes the session; the stitched
// trace is bit-identical to an uninterrupted run of the same spec.
func TestRestartResume(t *testing.T) {
	sp := spec("cmaes", 16, 33)

	// Uninterrupted baseline.
	base := newEnv(t, server.Options{JournalDir: t.TempDir()})
	bs, err := base.cl.Create(sp)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, bs)
	baseSt, err := bs.FullStatus()
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: half the campaign, then a full server restart.
	dir := t.TempDir()
	envA := newEnv(t, server.Options{JournalDir: dir})
	sa, err := envA.cl.Create(sp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		props, done, err := sa.Propose(1)
		if err != nil {
			t.Fatal(err)
		}
		if done || len(props) == 0 {
			break
		}
		sec, ok := objective(props[0].Config)
		if _, err := sa.Observe(client.Observation{Config: props[0].Config, Seconds: sec, Completed: ok}); err != nil {
			t.Fatal(err)
		}
	}
	envA.ts.Close()
	envA.srv.Shutdown()

	envB := newEnv(t, server.Options{JournalDir: dir})
	sb, err := envB.cl.Attach(sa.ID)
	if err != nil {
		t.Fatalf("attach after restart: %v", err)
	}
	st, err := sb.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Resumed || st.Trials != 8 {
		t.Fatalf("after restart: resumed=%v trials=%d, want resumed with 8", st.Resumed, st.Trials)
	}
	if st.Diverged != "" {
		t.Fatalf("replay diverged: %s", st.Diverged)
	}
	drive(t, sb)
	resSt, err := sb.FullStatus()
	if err != nil {
		t.Fatal(err)
	}

	// Bit-identical: every observed objective value, in order.
	if len(resSt.Trace) != len(baseSt.Trace) {
		t.Fatalf("trace lengths: restarted %d vs baseline %d", len(resSt.Trace), len(baseSt.Trace))
	}
	for i := range resSt.Trace {
		if resSt.Trace[i] != baseSt.Trace[i] {
			t.Fatalf("trace[%d]: restarted %x vs baseline %x", i, resSt.Trace[i], baseSt.Trace[i])
		}
	}
	if resSt.BestSeconds != baseSt.BestSeconds || resSt.Evals != baseSt.Evals {
		t.Fatalf("result drifted: best %x/%d vs baseline %x/%d",
			resSt.BestSeconds, resSt.Evals, baseSt.BestSeconds, baseSt.Evals)
	}
}

// TestStatusTraceTail: the default status carries a bounded tail, the
// explicit forms carry what was asked.
func TestStatusTraceTail(t *testing.T) {
	env := newEnv(t, server.Options{})
	sess, err := env.cl.Create(spec("randomsearch", 40, 2))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, sess)
	full, err := sess.FullStatus()
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Trace) != full.Trials || full.TraceStart != 0 {
		t.Fatalf("full trace: %d entries start %d, want %d from 0", len(full.Trace), full.TraceStart, full.Trials)
	}
	st, err := sess.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Trace) != 32 || st.TraceStart != full.Trials-32 {
		t.Fatalf("default tail: %d entries start %d", len(st.Trace), st.TraceStart)
	}
	var tailed client.StatusResponse
	resp, err := http.Get(env.ts.URL + "/v1/sessions/" + sess.ID + "?trace=5")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&tailed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(tailed.Trace) != 5 || tailed.Trace[4] != full.Trace[full.Trials-1] {
		t.Fatalf("?trace=5 tail wrong: %v", tailed.Trace)
	}
}

// TestUnknownSessionAndBadIDs: 404s and 400s, never 500s.
func TestUnknownSessionAndBadIDs(t *testing.T) {
	env := newEnv(t, server.Options{JournalDir: t.TempDir()})
	for _, id := range []string{"sdeadbeef", "no-such-session"} {
		if _, err := env.cl.Attach(id); !client.IsNotFound(err) {
			t.Errorf("attach %q: %v, want 404", id, err)
		}
	}
	// Path-escaping ids must be rejected outright.
	resp, err := http.Get(env.ts.URL + "/v1/sessions/" + "%2e%2e%2fetc")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 && resp.StatusCode != 404 {
		t.Fatalf("traversal id: %d, want 4xx", resp.StatusCode)
	}
}

// TestHealthAndMetrics: the monitoring endpoints serve and count.
func TestHealthAndMetrics(t *testing.T) {
	env := newEnv(t, server.Options{})
	sess, err := env.cl.Create(spec("randomsearch", 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, sess)

	resp, err := http.Get(env.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		OK           bool  `json:"ok"`
		SessionsLive int64 `json:"sessions_live"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !health.OK || health.SessionsLive != 1 {
		t.Fatalf("health: %+v", health)
	}

	resp, err = http.Get(env.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mv server.MetricsView
	if err := json.NewDecoder(resp.Body).Decode(&mv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if mv.Trials.Observations != 5 || mv.Trials.Proposals != 5 {
		t.Fatalf("metrics trials: %+v", mv.Trials)
	}
	if mv.ObserveLatency.Count != 5 {
		t.Fatalf("latency histogram count: %d", mv.ObserveLatency.Count)
	}
}
