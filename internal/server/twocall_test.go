package server_test

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/client"
	"repro/internal/server"
)

// exchange is one recorded request and its response. Path and
// Response carry "{id}" in place of the session id.
type exchange struct {
	Method   string `json:"method"`
	Path     string `json:"path"`
	Body     string `json:"body,omitempty"`
	Status   int    `json:"status"`
	Response string `json:"response"`
}

// twoCallScript drives a short randomsearch and a short robotune
// session over raw HTTP with the two-call protocol — propose
// requests, observe requests without next, a conflict, status and
// finish — calling do for every request. do returns the response.
func twoCallScript(t *testing.T, do func(method, path, body string) (int, string)) {
	propose := func(id, body string) server.ProposeResponse {
		code, data := do("POST", "/v1/sessions/"+id+"/propose", body)
		var pr server.ProposeResponse
		if err := json.Unmarshal([]byte(data), &pr); code != 200 || err != nil {
			t.Fatalf("propose %s: %d %s", body, code, data)
		}
		return pr
	}
	observe := func(id string, obs ...client.Observation) int {
		data, err := json.Marshal(map[string]any{"observations": obs})
		if err != nil {
			t.Fatal(err)
		}
		code, _ := do("POST", "/v1/sessions/"+id+"/observe", string(data))
		return code
	}
	create := func(sp client.SessionSpec) string {
		data, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		code, resp := do("POST", "/v1/sessions", string(data))
		var st client.StatusResponse
		if err := json.Unmarshal([]byte(resp), &st); code != 201 || err != nil {
			t.Fatalf("create: %d %s", code, resp)
		}
		return st.ID
	}

	id := create(spec("randomsearch", 6, 5))
	ps := propose(id, `{"n":2}`).Proposals
	observe(id, wireObservation(ps[0]))
	observe(id, client.Observation{Config: ps[1].Config, Seconds: 480, Raw: 95, OOM: true})
	ps = propose(id, ``).Proposals
	observe(id, wireObservation(ps[0]), client.Observation{Config: ps[1].Config, Skipped: true})
	if code := observe(id, wireObservation(ps[0])); code != 409 {
		t.Fatalf("double observe: %d, want 409", code)
	}
	do("POST", "/v1/sessions/"+id+"/observe", `{"observations":[]}`)
	do("GET", "/v1/sessions/"+id+"?trace=all", "")
	for _, p := range ps[2:] {
		observe(id, wireObservation(p))
	}
	propose(id, `{"n":0}`)
	do("DELETE", "/v1/sessions/"+id, "")
	do("GET", "/v1/sessions/"+id, "")

	id = create(spec("robotune", 14, 7))
	for round := 0; ; round++ {
		if round > 100 {
			t.Fatal("robotune session did not finish")
		}
		pr := propose(id, `{"n":0}`)
		if len(pr.Proposals) == 0 {
			break
		}
		for _, p := range pr.Proposals {
			observe(id, wireObservation(p))
		}
	}
	do("GET", "/v1/sessions/"+id+"?trace=all", "")
	do("DELETE", "/v1/sessions/"+id, "")
}

// TestTwoCallWireFormat replays the requests of two short two-call
// sessions recorded before observe requests could carry next
// (testdata/wire-twocall.json) and requires byte-identical responses,
// the random session id normalised: a client that never pipelines
// sees exactly the protocol it was written against.
// ROBOTUNE_UPDATE_GOLDEN=1 re-records the file from this tree.
func TestTwoCallWireFormat(t *testing.T) {
	golden := filepath.Join("testdata", "wire-twocall.json")
	srv := server.New(server.Options{JournalDir: t.TempDir(), Now: fixedClock})
	defer srv.Shutdown()
	h := srv.Handler()
	id := ""
	send := func(method, path, body string) (int, string) {
		path = strings.ReplaceAll(path, "{id}", id)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		resp := rec.Body.String()
		if method == "POST" && path == "/v1/sessions" {
			var st client.StatusResponse
			if err := json.Unmarshal([]byte(resp), &st); err != nil || st.ID == "" {
				t.Fatalf("create: %d %s", rec.Code, resp)
			}
			id = st.ID
		}
		return rec.Code, strings.ReplaceAll(resp, id, "{id}")
	}

	if os.Getenv("ROBOTUNE_UPDATE_GOLDEN") != "" {
		var log []exchange
		twoCallScript(t, func(method, path, body string) (int, string) {
			code, resp := send(method, path, body)
			log = append(log, exchange{method, strings.ReplaceAll(path, id, "{id}"), body, code, resp})
			return code, strings.ReplaceAll(resp, "{id}", id)
		})
		data, err := json.MarshalIndent(log, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d exchanges into %s", len(log), golden)
		return
	}

	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var log []exchange
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatal(err)
	}
	if len(log) < 20 {
		t.Fatalf("recording holds %d exchanges", len(log))
	}
	for i, ex := range log {
		code, resp := send(ex.Method, ex.Path, ex.Body)
		if code != ex.Status || resp != ex.Response {
			t.Fatalf("exchange %d (%s %s %s):\n got  %d %s\n want %d %s",
				i, ex.Method, ex.Path, ex.Body, code, resp, ex.Status, ex.Response)
		}
	}
}
