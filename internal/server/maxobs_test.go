package server_test

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/client"
	"repro/internal/server"
)

// TestMaxObservationsCap: past the per-session cap, evaluated
// observations answer 409 max_observations; skips stay accepted so a
// client can wind down its outstanding proposals, and the session
// still finishes cleanly.
func TestMaxObservationsCap(t *testing.T) {
	env := newEnv(t, server.Options{MaxObservations: 3})
	sess, err := env.cl.Create(spec("randomsearch", 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	props, _, err := sess.Propose(5)
	if err != nil || len(props) != 5 {
		t.Fatalf("propose: %v %v", props, err)
	}
	for i := 0; i < 3; i++ {
		sec, ok := objective(props[i].Config)
		if _, err := sess.Observe(client.Observation{Config: props[i].Config, Seconds: sec, Completed: ok}); err != nil {
			t.Fatalf("observe %d under cap: %v", i, err)
		}
	}

	// The 4th evaluated observation hits the cap.
	sec, ok := objective(props[3].Config)
	_, err = sess.Observe(client.Observation{Config: props[3].Config, Seconds: sec, Completed: ok})
	if !client.IsMaxObservations(err) {
		t.Fatalf("observe past cap: %v, want max_observations", err)
	}
	// The cap shares 409 with conflicts on the wire, but carries its
	// own code; both predicates must agree on the status.
	if !client.IsConflict(err) {
		t.Fatalf("capped observe should still be a 409: %v", err)
	}
	if got := env.srv.Metrics().ObsCapped.Load(); got != 1 {
		t.Fatalf("ObsCapped=%d, want 1", got)
	}
	// A plain pending-mismatch conflict must NOT read as the cap.
	_, err = sess.Observe(client.Observation{Config: map[string]float64{"size_mb": 256, "ttl": 5, "policy": 0}, Seconds: 1, Completed: true})
	if !client.IsConflict(err) || client.IsMaxObservations(err) {
		t.Fatalf("unproposed observe at cap: %v, want plain conflict", err)
	}

	// Rejected observations leave no state: still 3 trials, and the
	// proposal is still pending — a skip resolves it.
	st, err := sess.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Trials != 3 {
		t.Fatalf("trials=%d after capped observe, want 3", st.Trials)
	}
	for i := 3; i < 5; i++ {
		if _, err := sess.Observe(client.Observation{Config: props[i].Config, Skipped: true}); err != nil {
			t.Fatalf("skip %d at cap: %v", i, err)
		}
	}
	if _, err := sess.Finish(); err != nil {
		t.Fatalf("finish at cap: %v", err)
	}
}

// TestMetricsSurrogateSection: /metrics aggregates refit-cadence
// accounting across live ROBOTune sessions (and counts capped
// observations in the requests section).
func TestMetricsSurrogateSection(t *testing.T) {
	env := newEnv(t, server.Options{})
	sp := spec("robotune", 25, 7)
	sp.Options.RefitBudget = 0.5
	sess, err := env.cl.Create(sp)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, sess) // completes but the session stays live until DELETE

	resp, err := http.Get(env.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Requests struct {
			ObsCapped int64 `json:"observations_capped"`
		} `json:"requests"`
		Surrogate server.SurrogateView `json:"surrogate"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Surrogate.Sessions != 1 {
		t.Fatalf("surrogate sessions=%d, want 1: %+v", doc.Surrogate.Sessions, doc.Surrogate)
	}
	if doc.Surrogate.HyperRefits < 1 || doc.Surrogate.Observations < 10 {
		t.Fatalf("implausible surrogate aggregation: %+v", doc.Surrogate)
	}
	if doc.Surrogate.ActivePoints != doc.Surrogate.Observations {
		t.Fatalf("exact session must have active == observations: %+v", doc.Surrogate)
	}
	if doc.Requests.ObsCapped != 0 {
		t.Fatalf("ObsCapped=%d on an uncapped server", doc.Requests.ObsCapped)
	}
}

// TestSparseOptionReachesEngine: the spec's options.sparse and
// sparse_threshold become the engine's SparseThreshold, so a robotune
// session past the threshold fits its surrogate on the active set.
func TestSparseOptionReachesEngine(t *testing.T) {
	env := newEnv(t, server.Options{})
	sp := spec("robotune", 25, 7)
	sp.Options.Sparse = true
	sp.Options.SparseThreshold = 16
	sess, err := env.cl.Create(sp)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, sess)
	if s := surrogateView(t, env); s.SparseSessions != 1 || s.ActivePoints >= s.Observations {
		t.Fatalf("sparse session not on its active set: %+v", s)
	}
}

// TestMetricsSurrogateCountsBOHB: a bohb session's engine reports its
// refit cadence on /metrics like a robotune session's.
func TestMetricsSurrogateCountsBOHB(t *testing.T) {
	env := newEnv(t, server.Options{})
	sp := bohbSpec(20, 5)
	sp.Options.RefitBudget = 0.5
	sess, err := env.cl.Create(sp)
	if err != nil {
		t.Fatal(err)
	}
	n := drive(t, sess)
	s := surrogateView(t, env)
	if s.Sessions != 1 {
		t.Fatalf("surrogate sessions=%d, want 1 (the bohb session): %+v", s.Sessions, s)
	}
	if s.HyperRefits < 1 || s.Observations < 1 || s.Observations > n {
		t.Fatalf("implausible surrogate aggregation over %d observations: %+v", n, s)
	}
}

// surrogateView reads the surrogate section of GET /metrics.
func surrogateView(t *testing.T, env *testEnv) server.SurrogateView {
	t.Helper()
	resp, err := http.Get(env.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Surrogate server.SurrogateView `json:"surrogate"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc.Surrogate
}
