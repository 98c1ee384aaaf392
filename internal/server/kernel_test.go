package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/client"
	"repro/internal/backend"
	"repro/internal/cli"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/server"
	"repro/internal/tuners"
)

// The tests in this file pin the contract that robotuned and
// tuners.Drive are two drivers of one ask/tell kernel (tuners.Session):
// same proposals, same incumbent, same journal ledger, and a replay
// that restores exactly the state a restart interrupted.

// fixedClock keeps created/last-touch stamps reproducible.
func fixedClock() time.Time { return time.Unix(1_700_000_000, 0) }

// handlerTransport dispatches client requests straight into the
// server's handler, without a socket.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

func directClient(srv *server.Server) *client.Client {
	return &client.Client{BaseURL: "http://robotuned", HTTP: &http.Client{Transport: handlerTransport{srv.Handler()}}}
}

// outcome is the deterministic stand-in cluster shared by both
// drivers: the test objective scaled to the trial's fidelity, with
// small-cache LFU runs failing as OOM and runs past a positive cap
// stopped at it.
func outcome(cfg map[string]float64, cap float64, fid backend.Fidelity) backend.EvalRecord {
	sec, _ := objective(cfg)
	sec *= fid.Scale()
	rec := backend.EvalRecord{Seconds: sec, Raw: sec, Completed: true, Fidelity: fid}
	switch {
	case cfg["policy"] == 1 && cfg["size_mb"] < 300:
		rec.Completed, rec.OOM, rec.Seconds = false, true, 480
	case cap > 0 && sec > cap:
		rec.Completed, rec.Seconds = false, cap
	}
	return rec
}

// fidObjective runs outcome in process. It claims fidelity support,
// so proxy proposals run as proxies exactly as a wire client runs them.
type fidObjective struct {
	evals int
	cost  float64
	trial []tuners.Proposal // every evaluated trial, in order
}

func (o *fidObjective) EvaluateSpec(c conf.Config, spec backend.EvalSpec) backend.EvalRecord {
	rec := outcome(c.ToMap(), spec.Cap, spec.Fidelity)
	rec.Config = c
	o.evals++
	o.cost += math.Min(rec.Raw, rec.Seconds)
	o.trial = append(o.trial, tuners.Proposal{Config: c, Cap: spec.Cap, Fidelity: spec.Fidelity})
	return rec
}
func (o *fidObjective) Evals() int             { return o.evals }
func (o *fidObjective) SearchCost() float64    { return o.cost }
func (o *fidObjective) SupportsFidelity() bool { return true }

func wireObservation(p client.Proposal) client.Observation {
	fid := backend.Fidelity{InputScale: p.FidelityInput, StageFrac: p.FidelityStage}
	rec := outcome(p.Config, p.Cap, fid)
	return client.Observation{
		Config: p.Config, Seconds: rec.Seconds, Raw: rec.Raw, Completed: rec.Completed, OOM: rec.OOM,
		Cap: p.Cap, FidelityInput: p.FidelityInput, FidelityStage: p.FidelityStage,
	}
}

// wireRun is one way of driving a session over the wire to its end:
// it returns every trial handed out, in order, and the final status.
type wireRun func(t *testing.T, srv *server.Server, sp client.SessionSpec) ([]client.Proposal, client.StatusResponse)

// twoCallRun drives the session over raw HTTP, one propose request per
// batch and one observe request per trial, as a client that knows
// nothing of pipelining does.
func twoCallRun(t *testing.T, srv *server.Server, sp client.SessionSpec) ([]client.Proposal, client.StatusResponse) {
	hc := &http.Client{Transport: handlerTransport{srv.Handler()}}
	call := func(method, path string, in, out any) {
		t.Helper()
		var body io.Reader
		if in != nil {
			data, err := json.Marshal(in)
			if err != nil {
				t.Fatal(err)
			}
			body = bytes.NewReader(data)
		}
		req, err := http.NewRequest(method, "http://robotuned"+path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("%s %s: %d %s", method, path, resp.StatusCode, msg)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	var st client.StatusResponse
	call("POST", "/v1/sessions", sp, &st)
	var wire []client.Proposal
	for {
		var pr server.ProposeResponse
		call("POST", "/v1/sessions/"+st.ID+"/propose", map[string]int{"n": 0}, &pr)
		if len(pr.Proposals) == 0 {
			if !pr.Done {
				t.Fatal("stepper idle with nothing outstanding")
			}
			break
		}
		for _, p := range pr.Proposals {
			wire = append(wire, p)
			var or client.ObserveResponse
			call("POST", "/v1/sessions/"+st.ID+"/observe", map[string]any{"observations": []client.Observation{wireObservation(p)}}, &or)
		}
	}
	call("GET", "/v1/sessions/"+st.ID+"?trace=all", nil, &st)
	return wire, st
}

// pipelinedRun drives the session through a client handle in a closed
// Propose(n) loop, which the handle pipelines.
func pipelinedRun(n int) wireRun {
	return func(t *testing.T, srv *server.Server, sp client.SessionSpec) ([]client.Proposal, client.StatusResponse) {
		sess, err := directClient(srv).Create(sp)
		if err != nil {
			t.Fatal(err)
		}
		var wire []client.Proposal
		for {
			props, done, err := sess.Propose(n)
			if err != nil {
				t.Fatal(err)
			}
			if len(props) == 0 {
				if !done {
					t.Fatal("stepper idle with nothing outstanding")
				}
				break
			}
			for _, p := range props {
				wire = append(wire, p)
				if _, err := sess.Observe(wireObservation(p)); err != nil {
					t.Fatal(err)
				}
			}
		}
		st, err := sess.FullStatus()
		if err != nil {
			t.Fatal(err)
		}
		return wire, st
	}
}

// TestKernelConformance drives every tuner kind with one seed through
// robotuned (direct handler dispatch, journaled) and through
// tuners.Drive over the same deterministic, fidelity-aware objective.
// The wire side runs four ways: raw two-call HTTP, and a client
// handle's pipelined Propose(0), Propose(1) and Propose(2) loops.
// Every way must propose the same trials in the same order, with the
// same caps and fidelities, and end on the same trace and incumbent.
func TestKernelConformance(t *testing.T) {
	const budget, seed = 30, 7
	sp := spec("", budget, seed)
	opts := core.Options{GenericSamples: 10, TuningSamples: 5, PermuteRepeats: 2, Workers: 1}
	space, err := conf.ParseSpace(testSpaceJSON())
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Options{JournalDir: t.TempDir()})
	defer srv.Shutdown()
	for _, kind := range cli.TunerKinds() {
		t.Run(kind, func(t *testing.T) {
			tn, err := cli.BuildTunerOpts(kind, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			obj := &fidObjective{}
			s := tuners.NewSession(obj, space, tuners.Request{Budget: budget, Seed: seed})
			tn.Run(s)
			local := s.Result()

			sp.Tuner = kind
			for _, way := range []struct {
				name string
				run  wireRun
			}{
				{"two-call", twoCallRun},
				{"propose0", pipelinedRun(0)},
				{"propose1", pipelinedRun(1)},
				{"propose2", pipelinedRun(2)},
			} {
				t.Run(way.name, func(t *testing.T) {
					wire, st := way.run(t, srv, sp)
					if len(wire) != len(obj.trial) {
						t.Fatalf("wire proposed %d trials, Drive evaluated %d", len(wire), len(obj.trial))
					}
					for i, p := range obj.trial {
						w := wire[i]
						if !reflect.DeepEqual(p.Config.ToMap(), w.Config) || p.Cap != w.Cap ||
							p.Fidelity != (backend.Fidelity{InputScale: w.FidelityInput, StageFrac: w.FidelityStage}) {
							t.Fatalf("trial %d: Drive %v cap %v %s, wire %v cap %v input %v stage %v",
								i, p.Config.ToMap(), p.Cap, p.Fidelity, w.Config, w.Cap, w.FidelityInput, w.FidelityStage)
						}
					}
					if !reflect.DeepEqual(local.Trace, st.Trace) || !reflect.DeepEqual(local.Completed, st.Completed) ||
						!reflect.DeepEqual(local.Proxy, st.TraceProxy) {
						t.Fatalf("traces differ:\n Drive %v\n wire  %v", local.Trace, st.Trace)
					}
					if !local.Found || !st.Found || local.BestSeconds != st.BestSeconds || !reflect.DeepEqual(local.Best.ToMap(), st.Best) {
						t.Fatalf("incumbents differ: Drive %v@%v, wire %v@%v", local.Best.ToMap(), local.BestSeconds, st.Best, st.BestSeconds)
					}
					if local.Evals != st.Evals || local.SearchCost != st.Cost || local.Failures.Failed != st.Failed {
						t.Fatalf("spend differs: Drive %d/%v/%d failed, wire %d/%v/%d failed",
							local.Evals, local.SearchCost, local.Failures.Failed, st.Evals, st.Cost, st.Failed)
					}
				})
			}
		})
	}
}

// TestReplayPermutedRestarts observes every proposal batch in a
// seeded random order — some trials failing, some skipped — and
// restarts the server at random points. Each rehydrated session must
// report exactly the status it had just before the restart, except
// for what depends on handouts: those made after the last journaled
// observation are lost (so the stepper may propose again), and
// whatever replay regenerated comes back unclaimed.
func TestReplayPermutedRestarts(t *testing.T) {
	for _, kind := range []string{"randomsearch", "robotune", "bohb", "gunther"} {
		for seed := uint64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewPCG(seed, 0x5eed))
			dir := t.TempDir()
			srv := server.New(server.Options{JournalDir: dir, Now: fixedClock})
			cl := directClient(srv)
			sess, err := cl.Create(spec(kind, 24, seed))
			if err != nil {
				t.Fatal(err)
			}
			restarts := 0
			for round := 0; round < 1000; round++ {
				props, done, err := sess.Propose(0)
				if err != nil {
					t.Fatal(err)
				}
				if len(props) == 0 {
					if !done {
						t.Fatalf("%s seed %d: stepper idle with nothing outstanding", kind, seed)
					}
					break
				}
				for _, i := range rng.Perm(len(props)) {
					obs := wireObservation(props[i])
					switch r := rng.Float64(); {
					case r < 0.1:
						obs = client.Observation{Config: props[i].Config, Skipped: true}
					case r < 0.25:
						obs.Completed, obs.OOM, obs.Seconds = false, true, 480
					}
					if _, err := sess.Observe(obs); err != nil {
						t.Fatalf("%s seed %d: observe: %v", kind, seed, err)
					}
					if rng.Float64() >= 0.2 {
						continue
					}
					before, err := sess.FullStatus()
					if err != nil {
						t.Fatal(err)
					}
					srv.Shutdown()
					srv = server.New(server.Options{JournalDir: dir, Now: fixedClock})
					cl = directClient(srv)
					if sess, err = cl.Attach(sess.ID); err != nil {
						t.Fatal(err)
					}
					after, err := sess.FullStatus()
					if err != nil {
						t.Fatal(err)
					}
					restarts++
					if after.Diverged != "" || !after.Resumed {
						t.Fatalf("%s seed %d: rehydration diverged=%q resumed=%v", kind, seed, after.Diverged, after.Resumed)
					}
					if after.Unclaimed != after.Outstanding || after.Outstanding > before.Outstanding || after.Done && !before.Done {
						t.Fatalf("%s seed %d: outstanding %d (unclaimed %d) done=%v after restart, %d done=%v before",
							kind, seed, after.Outstanding, after.Unclaimed, after.Done, before.Outstanding, before.Done)
					}
					before.Resumed, before.Outstanding, before.Unclaimed, before.Done = true, after.Outstanding, after.Unclaimed, after.Done
					if !reflect.DeepEqual(before, after) {
						t.Fatalf("%s seed %d: status changed across a restart:\n before %+v\n after  %+v", kind, seed, before, after)
					}
					break // the rest of this batch's handouts may be lost: propose again
				}
			}
			if restarts == 0 {
				t.Fatalf("%s seed %d: no restart happened", kind, seed)
			}
			srv.Shutdown()
		}
	}
}

// TestWireJournalLedger: every wire journal entry carries the failure
// ledger as it stands after its trial — the convention of
// journal.EvalEntry and the in-process driver — with OOM and
// infeasible outcomes broken out.
func TestWireJournalLedger(t *testing.T) {
	dir := t.TempDir()
	env := newEnv(t, server.Options{JournalDir: dir})
	sp := spec("randomsearch", 8, 3)
	sess, err := env.cl.Create(sp)
	if err != nil {
		t.Fatal(err)
	}
	props, _, err := sess.Propose(4)
	if err != nil || len(props) != 4 {
		t.Fatalf("propose: %v %v", props, err)
	}
	for _, o := range []client.Observation{
		wireObservation(props[0]),
		{Config: props[1].Config, Seconds: 480, Raw: 95, OOM: true},
		{Config: props[2].Config, Seconds: 480, Raw: 12, Infeasible: true},
		{Config: props[3].Config, Skipped: true},
	} {
		if _, err := sess.Observe(o); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Finish(); err != nil {
		t.Fatal(err)
	}

	ps, err := server.ValidateSessionSpec(server.SessionSpec{Tuner: sp.Tuner, Space: sp.Space, Budget: sp.Budget, Seed: sp.Seed})
	if err != nil {
		t.Fatal(err)
	}
	jn, err := journal.Open(filepath.Join(dir, sess.ID+".jnl"), journal.Meta{
		Seed: sp.Seed, Budget: sp.Budget, Tuner: sp.Tuner, SpaceHash: ps.Space.Fingerprint(),
	}, journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	want := []journal.FailureCounts{
		{},
		{Failed: 1, OOM: 1},
		{Failed: 2, OOM: 1, Infeasible: 1},
		{Failed: 2, OOM: 1, Infeasible: 1, Skipped: 1},
	}
	for i, w := range want {
		e, ok := jn.NextReplay()
		if !ok {
			t.Fatalf("journal holds %d entries, want %d", i, len(want))
		}
		if e.Stats != w {
			t.Errorf("entry %d ledger %+v, want %+v", i, e.Stats, w)
		}
	}
}

// TestParentJournalRehydrates: wire journals written before the ledger
// was stamped after each trial (testdata: a completed, a failed and a
// skipped observation plus one unanswered handout, for randomsearch and
// robotune) rehydrate to exactly the status the server that wrote them
// reported.
func TestParentJournalRehydrates(t *testing.T) {
	for _, id := range []string{"wire-randomsearch", "wire-robotune"} {
		t.Run(id, func(t *testing.T) {
			dir := t.TempDir()
			for _, ext := range []string{".spec.json", ".jnl"} {
				data, err := os.ReadFile(filepath.Join("testdata", id+ext))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, id+ext), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			data, err := os.ReadFile(filepath.Join("testdata", id+".status.json"))
			if err != nil {
				t.Fatal(err)
			}
			var want client.StatusResponse
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			srv := server.New(server.Options{JournalDir: dir, Now: fixedClock})
			defer srv.Shutdown()
			sess, err := directClient(srv).Attach(id)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sess.FullStatus()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("rehydrated status drifted:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}
