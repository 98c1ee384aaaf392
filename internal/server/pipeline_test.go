package server_test

// Tests of the pipelined protocol: an observe request that carries
// the next proposals, the client handle's closed-loop rule, and
// reclaiming proposals whose response was lost.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/server"
)

// TestPipelinedLoopOneRequestPerTrial: a closed Propose(n) loop costs
// one observe request per trial and a single propose request, for
// every tuner kind and loop shape; the final Propose is answered by
// the last observe.
func TestPipelinedLoopOneRequestPerTrial(t *testing.T) {
	for _, kind := range []string{"randomsearch", "robotune", "bohb", "gunther"} {
		for _, n := range []int{0, 1, 2} {
			srv := server.New(server.Options{JournalDir: t.TempDir()})
			proposes, observes := 0, 0
			tp := &lossyTransport{h: srv.Handler(), drop: func(path string, _ []byte) bool {
				if strings.HasSuffix(path, "/propose") {
					proposes++
				} else if strings.HasSuffix(path, "/observe") {
					observes++
				}
				return false
			}}
			cl := &client.Client{BaseURL: "http://robotuned", HTTP: &http.Client{Transport: tp}}
			sess, err := cl.Create(spec(kind, 24, 5))
			if err != nil {
				t.Fatal(err)
			}
			trials := 0
			for {
				props, done, err := sess.Propose(n)
				if err != nil {
					t.Fatal(err)
				}
				if len(props) == 0 {
					if !done {
						t.Fatalf("%s Propose(%d): stepper idle with nothing outstanding", kind, n)
					}
					break
				}
				if n > 0 && len(props) > n {
					t.Fatalf("%s: Propose(%d) returned %d proposals", kind, n, len(props))
				}
				for _, p := range props {
					if _, err := sess.Observe(wireObservation(p)); err != nil {
						t.Fatal(err)
					}
					trials++
				}
			}
			st, err := sess.Status()
			if err != nil {
				t.Fatal(err)
			}
			if !st.Done || st.Trials != trials {
				t.Fatalf("%s Propose(%d): done=%v trials=%d, observed %d", kind, n, st.Done, st.Trials, trials)
			}
			if proposes != 1 || observes != trials {
				t.Errorf("%s Propose(%d): %d propose and %d observe requests for %d trials, want 1 and %d",
					kind, n, proposes, observes, trials, trials)
			}
			if got := srv.Metrics().Proposals.Load(); got != int64(trials) {
				t.Errorf("%s Propose(%d): /metrics counts %d proposals, %d were handed out", kind, n, got, trials)
			}
			srv.Shutdown()
		}
	}
}

// TestProposeTopsUpARaisedN: Propose serves what a pipelined Observe
// brought back without a request while it asks for no more than that
// Observe did, and asks the server for the rest when the caller raises
// n. A top-up the server refuses leaves the held proposals served
// alone, without an error.
func TestProposeTopsUpARaisedN(t *testing.T) {
	srv := server.New(server.Options{JournalDir: t.TempDir()})
	defer srv.Shutdown()
	tp := &refusingTransport{h: srv.Handler()}
	sess, err := (&client.Client{BaseURL: "http://robotuned", HTTP: &http.Client{Transport: tp}}).
		Create(spec("randomsearch", 20, 3))
	if err != nil {
		t.Fatal(err)
	}
	round := func(n, want, requests int) {
		t.Helper()
		before := tp.proposes
		props, done, err := sess.Propose(n)
		if err != nil || done || len(props) != want || tp.proposes-before != requests {
			t.Fatalf("Propose(%d): %d proposals, done=%v, %d requests, %v; want %d proposals, %d requests",
				n, len(props), done, tp.proposes-before, err, want, requests)
		}
		for _, p := range props {
			if _, err := sess.Observe(wireObservation(p)); err != nil {
				t.Fatal(err)
			}
		}
	}
	round(2, 2, 1) // the last observe asks for the next 2
	round(2, 2, 0)
	round(3, 3, 1) // 2 held and a top-up of 1; the last observe asks for 3
	tp.refuse = 1
	round(5, 3, 1) // the refused top-up serves the 3 held alone
	round(5, 5, 0)
	if st, err := sess.Status(); err != nil || st.Trials != 15 || st.Outstanding != 5 {
		t.Fatalf("status: %d trials, %d outstanding, %v; want 15 and the 5 held", st.Trials, st.Outstanding, err)
	}
}

// TestObserveNext pins the server side of a pipelined observe: next
// hands out proposals after the batch is applied, done is computed
// after them, a body without next keeps the plain answer, a negative
// next is a 400 that applies nothing, and reclaim re-serves the
// outstanding proposals oldest first, in place of new ones.
func TestObserveNext(t *testing.T) {
	env := newEnv(t, server.Options{JournalDir: t.TempDir()})
	sess, err := env.cl.Create(spec("randomsearch", 6, 3))
	if err != nil {
		t.Fatal(err)
	}
	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(env.ts.URL+"/v1/sessions/"+sess.ID+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, data
	}
	obsBody := func(p client.Proposal, next string) string {
		data, err := json.Marshal([]client.Observation{wireObservation(p)})
		if err != nil {
			t.Fatal(err)
		}
		return `{"observations":` + string(data) + next + `}`
	}
	var pr server.ProposeResponse
	code, data := post("/propose", `{"n":1}`)
	if err := json.Unmarshal(data, &pr); code != 200 || err != nil || len(pr.Proposals) != 1 {
		t.Fatalf("propose: %d %s", code, data)
	}
	first := pr.Proposals[0]

	if code, data := post("/observe", obsBody(first, `,"next":-1`)); code != 400 {
		t.Fatalf("next -1: %d %s, want 400", code, data)
	}
	code, data = post("/observe", obsBody(first, ""))
	if code != 200 || bytes.Contains(data, []byte("proposals")) || bytes.Contains(data, []byte("outstanding")) {
		t.Fatalf("observe without next: %d %s", code, data)
	}

	// Two proposals out; observing the first asks for two more.
	code, data = post("/propose", `{"n":2}`)
	if err := json.Unmarshal(data, &pr); code != 200 || err != nil || len(pr.Proposals) != 2 {
		t.Fatalf("propose 2: %d %s", code, data)
	}
	out := pr.Proposals
	var or client.ObserveResponse
	code, data = post("/observe", obsBody(out[0], `,"next":2`))
	if err := json.Unmarshal(data, &or); code != 200 || err != nil {
		t.Fatalf("observe with next: %d %s", code, data)
	}
	if or.Applied != 1 || len(or.Proposals) != 2 || or.Outstanding != 3 || or.Done {
		t.Fatalf("observe with next 2: %+v, want 1 applied, 2 proposals, 3 outstanding, not done", or)
	}
	out = append(out[1:], or.Proposals...)

	// Reclaim re-serves the three outstanding proposals, oldest first,
	// and nothing new; a reclaim with nothing outstanding proposes.
	pr = server.ProposeResponse{} // decoding must not reuse out's maps
	code, data = post("/propose", `{"n":0,"reclaim":true}`)
	if err := json.Unmarshal(data, &pr); code != 200 || err != nil {
		t.Fatalf("reclaim: %d %s", code, data)
	}
	if !reflect.DeepEqual(pr.Proposals, out) || pr.Done || pr.Outstanding != 3 {
		t.Fatalf("reclaim: %+v, want %v again, not done, 3 outstanding", pr, out)
	}
	for i, p := range out {
		if code, data := post("/observe", obsBody(p, "")); code != 200 {
			t.Fatalf("observe %d: %d %s", i, code, data)
		}
	}
	pr = server.ProposeResponse{}
	code, data = post("/propose", `{"n":0,"reclaim":true}`)
	if err := json.Unmarshal(data, &pr); code != 200 || err != nil || len(pr.Proposals) != 1 || !pr.Done || pr.Outstanding != 1 {
		t.Fatalf("reclaim with nothing outstanding: %d %s, want the budget's last proposal, done", code, data)
	}
	code, data = post("/observe", obsBody(pr.Proposals[0], `,"next":0`))
	or = client.ObserveResponse{}
	if err := json.Unmarshal(data, &or); code != 200 || err != nil || !or.Done || len(or.Proposals) != 0 || or.Trials != 6 {
		t.Fatalf("last observe with next: %d %s, want done with no proposals after 6 trials", code, data)
	}
	if st, err := sess.Status(); err != nil || !st.Done || st.Outstanding != 0 {
		t.Fatalf("status: %+v %v", st, err)
	}
}

// lossyTransport dispatches requests into the server's handler, and
// for the answered requests its drop function picks lets the server
// apply the request, then answers the client with a transport error
// instead of the response: the response was lost in transit. With a
// status, a gateway's answer of that status replaces the response
// instead.
type lossyTransport struct {
	h      http.Handler
	drop   func(path string, body []byte) bool
	status int

	mu      sync.Mutex
	dropped int
}

func (l *lossyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	var body []byte
	if r.Body != nil {
		var err error
		if body, err = io.ReadAll(r.Body); err != nil {
			return nil, err
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	rec := httptest.NewRecorder()
	l.h.ServeHTTP(rec, r)
	l.mu.Lock()
	defer l.mu.Unlock()
	if rec.Code/100 == 2 && l.drop(r.URL.Path, body) {
		l.dropped++
		if l.status == 0 {
			return nil, errors.New("response lost in transit")
		}
		gw := httptest.NewRecorder()
		http.Error(gw, "bad gateway", l.status)
		return gw.Result(), nil
	}
	return rec.Result(), nil
}

// everyOther picks every other request the filter matches, the first
// included.
func everyOther(match func(path string, body []byte) bool) func(string, []byte) bool {
	n := 0
	return func(path string, body []byte) bool {
		if !match(path, body) {
			return false
		}
		n++
		return n%2 == 1
	}
}

func isPropose(path string, _ []byte) bool { return strings.HasSuffix(path, "/propose") }

// isPipelinedObserve matches an observe request that asks for the next
// proposals.
func isPipelinedObserve(path string, body []byte) bool {
	return strings.HasSuffix(path, "/observe") && bytes.Contains(body, []byte(`"next":`))
}

// lossyRun drives a session through a client handle with a retry
// policy in a closed Propose(n) loop. A conflict is an observation the
// server already has, and so is a sealed session: a retried final
// observation finds the session it finished.
func lossyRun(t *testing.T, tp http.RoundTripper, sp client.SessionSpec, n int) client.StatusResponse {
	t.Helper()
	cl := &client.Client{BaseURL: "http://robotuned", HTTP: &http.Client{Transport: tp},
		Retry: client.RetryPolicy{MaxRetries: 3, Sleep: func(time.Duration) {}}}
	sess, err := cl.Create(sp)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; ; round++ {
		if round > 1000 {
			t.Fatal("session did not finish within 1000 rounds")
		}
		props, done, err := sess.Propose(n)
		if err != nil {
			t.Fatalf("propose: %v", err)
		}
		if len(props) == 0 {
			if !done {
				t.Fatalf("round %d: stepper idle with nothing outstanding", round)
			}
			break
		}
		for _, p := range props {
			if _, err := sess.Observe(wireObservation(p)); err != nil && !client.IsConflict(err) && !client.IsFinished(err) {
				t.Fatalf("observe: %v", err)
			}
		}
	}
	st, err := sess.FullStatus()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestLostResponsesReclaimed: a response lost after the server applied
// its request — a propose answer, or an observe answer that carried
// the next proposals — must not strand the proposals it carried,
// whether the answer vanished in transit or a gateway replaced it with
// a 502. A client with a retry policy reclaims them, and every session
// ends on the trace of an undisturbed run.
func TestLostResponsesReclaimed(t *testing.T) {
	cases := []struct {
		name   string
		drop   func() func(string, []byte) bool
		status int
	}{
		{"propose", func() func(string, []byte) bool { return everyOther(isPropose) }, 0},
		{"observe", func() func(string, []byte) bool { return everyOther(isPipelinedObserve) }, 0},
		{"both", func() func(string, []byte) bool {
			p, o := everyOther(isPropose), everyOther(isPipelinedObserve)
			return func(path string, body []byte) bool { return p(path, body) || o(path, body) }
		}, 0},
		{"propose502", func() func(string, []byte) bool { return everyOther(isPropose) }, http.StatusBadGateway},
		{"observe502", func() func(string, []byte) bool { return everyOther(isPipelinedObserve) }, http.StatusBadGateway},
	}
	for _, kind := range []string{"robotune", "cmaes", "bohb", "randomsearch"} {
		for _, n := range []int{0, 1, 2} {
			sp := spec(kind, 24, 7)
			srv := server.New(server.Options{JournalDir: t.TempDir()})
			want := lossyRun(t, handlerTransport{srv.Handler()}, sp, n)
			for _, tc := range cases {
				t.Run(fmt.Sprintf("%s/propose%d/%s", kind, n, tc.name), func(t *testing.T) {
					tp := &lossyTransport{h: srv.Handler(), drop: tc.drop(), status: tc.status}
					got := lossyRun(t, tp, sp, n)
					if tp.dropped == 0 {
						t.Fatal("no response was lost; the case shows nothing")
					}
					if got.Diverged != "" || !got.Done || got.Outstanding != 0 {
						t.Fatalf("diverged=%q done=%v outstanding=%d", got.Diverged, got.Done, got.Outstanding)
					}
					if !reflect.DeepEqual(got.Trace, want.Trace) || !reflect.DeepEqual(got.Completed, want.Completed) ||
						!reflect.DeepEqual(got.TraceProxy, want.TraceProxy) {
						t.Fatalf("%d lost responses: trace\n got  %v\n want %v", tp.dropped, got.Trace, want.Trace)
					}
					if got.BestSeconds != want.BestSeconds || !reflect.DeepEqual(got.Best, want.Best) ||
						got.Evals != want.Evals || got.Cost != want.Cost {
						t.Fatalf("result: best %v evals %d cost %v, want %v %d %v",
							got.BestSeconds, got.Evals, got.Cost, want.BestSeconds, want.Evals, want.Cost)
					}
				})
			}
			srv.Shutdown()
		}
	}
}

// TestRetriedFinalObserveFinished: when the answer to a session's last
// observation is lost after the server applied it, the client's retry
// finds the session that observation sealed and gets 410 finished, not
// 409. The observation was applied: the status shows the session done,
// with every observation in its trace and nothing outstanding.
func TestRetriedFinalObserveFinished(t *testing.T) {
	const budget = 6
	srv := server.New(server.Options{JournalDir: t.TempDir()})
	defer srv.Shutdown()
	observes := 0
	tp := &lossyTransport{h: srv.Handler(), drop: func(path string, _ []byte) bool {
		if !strings.HasSuffix(path, "/observe") {
			return false
		}
		observes++
		return observes == budget
	}}
	cl := &client.Client{BaseURL: "http://robotuned", HTTP: &http.Client{Transport: tp},
		Retry: client.RetryPolicy{MaxRetries: 2, Sleep: func(time.Duration) {}}}
	sess, err := cl.Create(spec("randomsearch", budget, 9))
	if err != nil {
		t.Fatal(err)
	}
	var sent []float64
	var last error
	for len(sent) < budget {
		props, _, err := sess.Propose(1)
		if err != nil || len(props) != 1 {
			t.Fatalf("propose after %d trials: %v %v", len(sent), props, err)
		}
		obs := wireObservation(props[0])
		sent = append(sent, obs.Seconds)
		_, last = sess.Observe(obs)
		if last != nil && len(sent) < budget {
			t.Fatalf("observe %d: %v", len(sent), last)
		}
	}
	if tp.dropped != 1 || !client.IsFinished(last) || client.IsConflict(last) {
		t.Fatalf("final observe after %d lost answers: %v, want 410 finished", tp.dropped, last)
	}
	st, err := sess.FullStatus()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.Trials != budget || st.Outstanding != 0 || !reflect.DeepEqual(st.Trace, sent) {
		t.Fatalf("status: done=%v trials=%d outstanding=%d trace %v, want done, %d trials, trace %v",
			st.Done, st.Trials, st.Outstanding, st.Trace, budget, sent)
	}
}

// refusingTransport dispatches requests into the server's handler,
// and answers the next refuse propose requests with a 503 instead: a
// refusal before any state changed. It counts propose requests.
type refusingTransport struct {
	h        http.Handler
	refuse   int
	proposes int
}

func (r *refusingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, "/propose") {
		r.proposes++
		if r.refuse > 0 {
			r.refuse--
			rec := httptest.NewRecorder()
			http.Error(rec, "overloaded", http.StatusServiceUnavailable)
			return rec.Result(), nil
		}
	}
	return handlerTransport{r.h}.RoundTrip(req)
}

// TestRetriedProposeSparesSharedTrials: a propose attempt refused
// before the server changed any state (a 503) is retried as a plain
// propose, not a reclaim. On a session another handle shares, a
// reclaim would hand out the trial that handle is running.
func TestRetriedProposeSparesSharedTrials(t *testing.T) {
	srv := server.New(server.Options{JournalDir: t.TempDir()})
	defer srv.Shutdown()
	a, err := directClient(srv).Create(spec("randomsearch", 6, 3))
	if err != nil {
		t.Fatal(err)
	}
	running, _, err := a.Propose(1)
	if err != nil || len(running) != 1 {
		t.Fatalf("propose: %v %v", running, err)
	}
	tp := &refusingTransport{h: srv.Handler(), refuse: 1}
	cl := &client.Client{BaseURL: "http://robotuned", HTTP: &http.Client{Transport: tp},
		Retry: client.RetryPolicy{MaxRetries: 1, Sleep: func(time.Duration) {}}}
	b, err := cl.Attach(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	props, _, err := b.Propose(1)
	if err != nil || tp.refuse != 0 || tp.proposes != 2 || len(props) != 1 {
		t.Fatalf("retried propose: %v %v after %d requests", props, err, tp.proposes)
	}
	if reflect.DeepEqual(props[0].Config, running[0].Config) {
		t.Fatalf("the retry handed out the trial the other handle is running: %v", props[0].Config)
	}
}
