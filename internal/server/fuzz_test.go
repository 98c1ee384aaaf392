package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/client"
	"repro/internal/server"
)

// FuzzSessionSpec throws arbitrary bytes at the session-spec decoder:
// whatever comes in, it must never panic, and anything it accepts must
// build a working session end-to-end. Run the seeds under `go test`,
// or mine with `make fuzz-server`.
func FuzzSessionSpec(f *testing.F) {
	f.Add([]byte(`{"tuner":"randomsearch","space":"spark","budget":10}`))
	f.Add([]byte(`{"tuner":"robotune","space":"spark","budget":100,"seed":7,"workload":"TeraSort","dataset":"D1"}`))
	f.Add([]byte(`{"tuner":"cmaes","space":{"system":"x","params":[{"name":"a","type":"float","min":0,"max":1,"default":0.5}]},"budget":5}`))
	f.Add([]byte(`{"tuner":"randomsearch","space":"spark","budget":10,"sync":"none","options":{"workers":2}}`))
	f.Add([]byte(`{"tuner":"randomsearch","space":"spark","budget":-1}`))
	f.Add([]byte(`{"tuner":"randomsearch","space":"spark","budget":1e99}`))
	f.Add([]byte(`{"tuner":"","space":"","budget":0}`))
	f.Add([]byte(`{"tuner":"randomsearch","space":"spark","budget":10,"options":{"importance_threshold":1e308}}`))
	f.Add([]byte(`{"tuner":"bohb","space":"spark","budget":20,"seed":3,"options":{"fidelity_ladder":[0.111,0.333,1],"cost_aware":true}}`))
	f.Add([]byte(`{"tuner":"bohb","space":"spark","budget":20,"options":{"fidelity_ladder":[0.5,0.2,1]}}`))
	f.Add([]byte(`{"tuner":"bohb","space":"spark","budget":20,"options":{"fidelity_ladder":[0.25,0.5]}}`))
	f.Add([]byte(`{"tuner":"bohb","space":"spark","budget":20,"options":{"fidelity_ladder":[-1,1]}}`))
	f.Add([]byte(`{"tuner":"bohb","space":"spark","budget":20,"seed":3,"options":{"fidelity_ladder":[0.111,0.333,1],"fidelity_axis":"stage"}}`))
	f.Add([]byte(`{"tuner":"bohb","space":"spark","budget":20,"options":{"fidelity_axis":"volume"}}`))
	f.Add([]byte(`{"tuner":"randomsearch","space":"spark","budget":10,"options":{"cost_aware":true}}`))
	f.Add([]byte(`{"tuner":"randomsearch","space":{"system":"x","params":[{"name":"a","type":"int","min":9,"max":1}]},"budget":3}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte{0xff, 0xfe, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		ps, err := server.DecodeSessionSpec(data)
		if err != nil {
			return // rejected is fine; panicking is not
		}
		// Accepted specs must satisfy the documented bounds...
		if ps.Spec.Budget <= 0 || ps.Spec.Budget > server.MaxBudget {
			t.Fatalf("accepted budget %d outside (0, %d]", ps.Spec.Budget, server.MaxBudget)
		}
		if ps.Space == nil || ps.Space.Dim() == 0 || ps.Space.Dim() > server.MaxSpaceDim {
			t.Fatalf("accepted spec with unusable space: %+v", ps.Space)
		}
		// ... and actually serve traffic: create the session on an
		// ephemeral server and run one propose/observe round trip.
		srv := server.New(server.Options{})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		cl := client.New(ts.URL)
		sess, err := cl.Create(ps.Spec)
		if err != nil {
			t.Fatalf("validated spec rejected by the server: %v", err)
		}
		props, _, err := sess.Propose(1)
		if err != nil {
			t.Fatalf("first propose on a fresh session: %v", err)
		}
		if len(props) > 0 {
			if _, err := sess.Observe(client.Observation{Config: props[0].Config, Seconds: 1, Completed: true}); err != nil {
				t.Fatalf("observing our own proposal: %v", err)
			}
		}
	})
}

// FuzzObserveBody throws arbitrary bytes at the observe decoder and,
// when they decode, at a live session. Invariants: no panic; invalid
// bodies 4xx; the session's evaluation counter moves only on accepted,
// non-skipped observations; the tuner never sees a non-finite number.
func FuzzObserveBody(f *testing.F) {
	f.Add([]byte(`{"observations":[{"config":{"size_mb":256,"ttl":5,"policy":0},"seconds":12.5,"completed":true}]}`))
	f.Add([]byte(`{"observations":[{"config":{"size_mb":64,"ttl":0.1,"policy":2},"seconds":480,"raw":1200,"completed":false,"oom":true}]}`))
	f.Add([]byte(`{"observations":[{"config":{"size_mb":64,"ttl":1,"policy":1},"skipped":true}]}`))
	f.Add([]byte(`{"observations":[]}`))
	f.Add([]byte(`{"observations":[{"config":{},"seconds":1}]}`))
	f.Add([]byte(`{"observations":[{"config":{"size_mb":256},"seconds":-1}]}`))
	f.Add([]byte(`{"observations":[{"config":{"size_mb":1e999},"seconds":1}]}`))
	f.Add([]byte(`{"observations":[{"config":{"size_mb":256,"ttl":5,"policy":0},"seconds":1e999}]}`))
	f.Add([]byte(`{"observations":[{"config":{"unknown_param":1},"seconds":1}]}`))
	f.Add([]byte(`{"observations":[{"config":{"size_mb":256,"ttl":5,"policy":0},"seconds":4.2,"cap":480,"fidelity_input":0.333,"completed":true}]}`))
	f.Add([]byte(`{"observations":[{"config":{"size_mb":256,"ttl":5,"policy":0},"seconds":4.2,"fidelity_input":1.5,"completed":true}]}`))
	f.Add([]byte(`{"observations":[{"config":{"size_mb":256,"ttl":5,"policy":0},"seconds":4.2,"fidelity_stage":-0.25}]}`))
	f.Add([]byte(`{"observations":[{"config":{"size_mb":256,"ttl":5,"policy":0},"skipped":true,"fidelity_input":2}]}`))
	f.Add([]byte(`{"observations":[{"config":{"size_mb":256,"ttl":5,"policy":0},"seconds":4.2,"cap":-3}]}`))
	f.Add([]byte(`{"observations":null}`))
	f.Add([]byte(`{"observation":[{"config":{"size_mb":256},"seconds":1}]}`)) // wrong field
	f.Add([]byte(`"observations"`))
	f.Add([]byte{0x00})
	// next: absent (null), 0, 3, negative and past MaxBatch.
	f.Add([]byte(`{"observations":[{"config":{"size_mb":256,"ttl":5,"policy":0},"seconds":12.5,"completed":true}],"next":null}`))
	f.Add([]byte(`{"observations":[{"config":{"size_mb":256,"ttl":5,"policy":0},"seconds":12.5,"completed":true}],"next":0}`))
	f.Add([]byte(`{"observations":[{"config":{"size_mb":256,"ttl":5,"policy":0},"seconds":12.5,"completed":true}],"next":3}`))
	f.Add([]byte(`{"observations":[{"config":{"size_mb":256,"ttl":5,"policy":0},"seconds":12.5,"completed":true}],"next":-1}`))
	f.Add([]byte(fmt.Sprintf(`{"observations":[{"config":{"size_mb":256,"ttl":5,"policy":0},"skipped":true}],"next":%d}`, server.MaxBatch+1)))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := server.DecodeObserveBody(data)
		if err == nil {
			if req.Next != nil && (*req.Next < 0 || *req.Next > server.MaxBatch) {
				t.Fatalf("decoder passed next %d outside [0, %d]", *req.Next, server.MaxBatch)
			}
			// Whatever the decoder lets through must be finite.
			for _, o := range req.Observations {
				for name, v := range o.Config {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("decoder passed non-finite config value %s=%v", name, v)
					}
				}
				if !o.Skipped && (math.IsNaN(o.Seconds) || math.IsInf(o.Seconds, 0) || o.Seconds < 0) {
					t.Fatalf("decoder passed bad seconds %v", o.Seconds)
				}
				// Fidelity must be validated even on skips — a malformed
				// fidelity must never reach the journal.
				for _, v := range [...]float64{o.FidelityInput, o.FidelityStage} {
					if math.IsNaN(v) || v < 0 || v > 1 {
						t.Fatalf("decoder passed bad fidelity %v", v)
					}
				}
				if !o.Skipped && (math.IsNaN(o.Cap) || math.IsInf(o.Cap, 0) || o.Cap < 0) {
					t.Fatalf("decoder passed bad cap %v", o.Cap)
				}
			}
		}

		// Protocol-level: replay the raw bytes against a live session
		// that has exactly one pending proposal. The server must answer
		// with *some* status — never crash, never corrupt the session.
		srv := server.New(server.Options{})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		cl := client.New(ts.URL)
		sess, cerr := cl.Create(spec("randomsearch", 4, 1))
		if cerr != nil {
			t.Fatal(cerr)
		}
		props, _, perr := sess.Propose(1)
		if perr != nil || len(props) != 1 {
			t.Fatalf("propose: %v %v", props, perr)
		}
		evalsBefore := srv.Metrics().Observations.Load()

		resp, herr := http.Post(ts.URL+"/v1/sessions/"+sess.ID+"/observe", "application/json", bytes.NewReader(data))
		if herr != nil {
			t.Fatal(herr)
		}
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			t.Fatalf("hostile observe body produced a %d", resp.StatusCode)
		}
		if err != nil && resp.StatusCode != 400 {
			t.Fatalf("decoder rejected the body but the server answered %d", resp.StatusCode)
		}

		// The session must still be intact: status serves, and the
		// pending proposal is still observable (unless this very body
		// legitimately observed or skipped it).
		st, serr := sess.Status()
		if serr != nil {
			t.Fatalf("status after hostile observe: %v", serr)
		}
		if st.Trials < 0 || st.Evals < 0 || st.Evals > st.Trials {
			t.Fatalf("session counters corrupted: %+v", st)
		}
		if resp.StatusCode != 200 {
			if got := srv.Metrics().Observations.Load(); got != evalsBefore {
				t.Fatalf("rejected request moved the observation counter %d -> %d", evalsBefore, got)
			}
			if _, oerr := sess.Observe(client.Observation{Config: props[0].Config, Seconds: 2, Completed: true}); oerr != nil {
				t.Fatalf("pending proposal unobservable after rejected body: %v", oerr)
			}
		}
	})
}

// FuzzStatusRoundTrip: every status document the server can emit must
// be valid JSON that round-trips through the client types. (Cheap, but
// it pins the +Inf-in-JSON class of bug: a session with no completed
// trial must not try to marshal its infinite incumbent.)
func FuzzStatusRoundTrip(f *testing.F) {
	f.Add(uint64(1), false)
	f.Add(uint64(42), true)
	f.Fuzz(func(t *testing.T, seed uint64, complete bool) {
		srv := server.New(server.Options{})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		cl := client.New(ts.URL)
		sess, err := cl.Create(spec("randomsearch", 3, seed))
		if err != nil {
			t.Fatal(err)
		}
		props, _, err := sess.Propose(1)
		if err != nil || len(props) != 1 {
			t.Fatalf("propose: %v %v", props, err)
		}
		// A failed-only history leaves the incumbent at +Inf internally.
		if _, err := sess.Observe(client.Observation{Config: props[0].Config, Seconds: 480, Completed: complete}); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(ts.URL + "/v1/sessions/" + sess.ID)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st client.StatusResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("status is not valid JSON: %v", err)
		}
		if st.Found != complete {
			t.Fatalf("found=%v after a completed=%v trial", st.Found, complete)
		}
		if res, err := sess.Finish(); err != nil {
			t.Fatalf("finish: %v", err)
		} else if res.Found != complete {
			t.Fatalf("result found=%v, want %v", res.Found, complete)
		}
	})
}
