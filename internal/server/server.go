// Package server implements robotuned: a long-running HTTP daemon
// hosting many concurrent journal-backed tuning sessions behind the
// ask/tell wire protocol. Clients create a session from a JSON spec,
// pull proposals, run them on whatever system they are tuning, and
// report observations back; every observation is journaled before the
// tuner acts on it, so a killed daemon restarted on the same journal
// directory resumes every session bit-identically.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// Options configures a Server. The zero value is a usable ephemeral
// server: no journal directory (sessions die with the process), no
// tenant caps, no eviction.
type Options struct {
	// JournalDir is where session specs and journals live; "" disables
	// durability (and therefore eviction and restart recovery).
	JournalDir string
	// Shards is the session-table stripe count (default 16).
	Shards int
	// MaxSessions caps live (in-memory) sessions across all tenants;
	// 0 = unlimited.
	MaxSessions int
	// TenantSessions caps live sessions per tenant; 0 = unlimited.
	TenantSessions int
	// MaxObservations caps each session's applied observation history;
	// past the cap new observations answer 409 with code
	// "max_observations" until the client finishes the session.
	// 0 = unlimited. The cap bounds server-side memory and surrogate
	// cost per session regardless of the spec's nominal budget.
	MaxObservations int
	// TenantEvalsPerSec rate-limits observations per tenant (token
	// bucket, burst TenantBurst); 0 = unlimited.
	TenantEvalsPerSec float64
	// TenantBurst is the observation token-bucket depth (default
	// 2×TenantEvalsPerSec, minimum MaxBatch, when a rate is set).
	TenantBurst int
	// IdleTTL evicts sessions untouched this long (journal-backed
	// servers only); 0 disables eviction.
	IdleTTL time.Duration
	// EvictEvery is the janitor period (default IdleTTL/4, floor 1s).
	EvictEvery time.Duration
	// ProposeSlots bounds concurrent stepper Propose computations
	// across all sessions (ROBOTune's surrogate refit + acquisition
	// search — the CPU-heavy part of hosting a session). Sessions
	// whose spec asks priority "latency" overtake queued "bulk"
	// proposes at every slot hand-off; /metrics reports the
	// preemption and per-class wait accounting. 0 = unbounded.
	ProposeSlots int
	// Now is the clock (default time.Now); tests inject a fake one to
	// drive eviction and rate limiting deterministically.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 16
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.TenantEvalsPerSec > 0 && o.TenantBurst <= 0 {
		o.TenantBurst = int(2 * o.TenantEvalsPerSec)
		if o.TenantBurst < MaxBatch {
			o.TenantBurst = MaxBatch
		}
	}
	if o.EvictEvery <= 0 {
		o.EvictEvery = o.IdleTTL / 4
		if o.EvictEvery < time.Second {
			o.EvictEvery = time.Second
		}
	}
	return o
}

// Server is the robotuned HTTP service.
type Server struct {
	opts    Options
	store   *Store
	metrics *Metrics
	mux     *http.ServeMux

	draining atomic.Bool
	inflight atomic.Int64
}

// New builds a server. Call Handler for its http.Handler, Janitor to
// run idle eviction, and Shutdown before exit.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{opts: opts, metrics: &Metrics{}}
	s.store = newStore(opts, s.metrics)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	mux.HandleFunc("GET /v1/sessions", s.handleList)
	mux.HandleFunc("POST /v1/sessions/{id}/propose", s.handlePropose)
	mux.HandleFunc("POST /v1/sessions/{id}/observe", s.handleObserve)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// Handler returns the HTTP handler (request counting included).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		s.metrics.Requests.Add(1)
		s.mux.ServeHTTP(w, r)
	})
}

// StartDrain puts the server into draining mode: session creation
// answers 503 with code "draining", /healthz flips to 503 so load
// balancers stop routing here, and everything else keeps working —
// live sessions can still propose, observe, and finish, so clients
// get a window to checkpoint before the process exits. Idempotent.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// InFlight is the number of requests currently inside the handler;
// the shutdown path polls it to zero before closing journals.
func (s *Server) InFlight() int64 { return s.inflight.Load() }

// Metrics exposes the counter set (tests read it directly).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Store exposes the session store (the janitor and tests).
func (s *Server) Store() *Store { return s.store }

// Janitor evicts idle sessions until ctx is cancelled. A server with
// no IdleTTL or no journal directory needs no janitor.
func (s *Server) Janitor(ctx context.Context) {
	if s.opts.IdleTTL <= 0 || s.opts.JournalDir == "" {
		return
	}
	t := time.NewTicker(s.opts.EvictEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.store.EvictIdle(s.opts.IdleTTL)
		}
	}
}

// Shutdown syncs and closes every live session's journal; the server
// rejects traffic afterwards. Safe to call once the HTTP listener has
// stopped accepting (or concurrently — in-flight requests either
// finish first or see 503).
func (s *Server) Shutdown() {
	s.store.Shutdown()
}

// --- Handlers --------------------------------------------------------

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeErr(w, errDraining("server is draining; create the session elsewhere"))
		return
	}
	body, aerr := readBody(w, r)
	if aerr != nil {
		s.writeErr(w, aerr)
		return
	}
	ps, err := DecodeSessionSpec(body)
	if err != nil {
		s.writeErr(w, errBadRequest("%v", err))
		return
	}
	tenant := tenantOf(r.Header.Get("X-Robotune-Tenant"))
	// The global cap reads the live gauge without store locks; a
	// slight overshoot under a create storm is acceptable.
	if s.opts.MaxSessions > 0 && s.metrics.SessionsLive.Load() >= int64(s.opts.MaxSessions) {
		s.metrics.Throttled.Add(1)
		s.writeErr(w, errThrottled("server at its %d-session capacity", s.opts.MaxSessions))
		return
	}
	sess, aerr := s.store.Create(tenant, ps)
	if aerr != nil {
		s.writeErr(w, aerr)
		return
	}
	sess.mu.Lock()
	st := sess.status(0)
	sess.mu.Unlock()
	writeJSON(w, http.StatusCreated, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"sessions": s.store.List()})
}

func (s *Server) handlePropose(w http.ResponseWriter, r *http.Request) {
	body, aerr := readBody(w, r)
	if aerr != nil {
		s.writeErr(w, aerr)
		return
	}
	req, err := DecodeProposeRequest(body)
	if err != nil {
		s.writeErr(w, errBadRequest("%v", err))
		return
	}
	sess, aerr := s.store.Touch(r.PathValue("id"))
	if aerr != nil {
		s.writeErr(w, aerr)
		return
	}
	resp, aerr := sess.propose(req.N, req.Reclaim)
	sess.mu.Unlock()
	if aerr != nil {
		s.writeErr(w, aerr)
		return
	}
	s.metrics.Proposals.Add(int64(len(resp.Proposals)))
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	body, aerr := readBody(w, r)
	if aerr != nil {
		s.writeErr(w, aerr)
		return
	}
	req, err := DecodeObserveBody(body)
	if err != nil {
		s.writeErr(w, errBadRequest("%v", err))
		return
	}
	tenant := tenantOf(r.Header.Get("X-Robotune-Tenant"))
	// Backpressure before any state changes: a throttled batch is
	// rejected whole, never half-applied.
	if aerr := s.store.chargeEvals(tenant, len(req.Observations)); aerr != nil {
		s.writeErr(w, aerr)
		return
	}
	sess, aerr := s.store.Touch(r.PathValue("id"))
	if aerr != nil {
		s.writeErr(w, aerr)
		return
	}
	applied, skips := 0, 0
	for _, o := range req.Observations {
		if oerr := sess.observe(o); oerr != nil {
			sess.mu.Unlock()
			s.metrics.Observations.Add(int64(applied))
			s.metrics.Skips.Add(int64(skips))
			if applied > 0 {
				oerr = &apiErr{status: oerr.status, code: oerr.code,
					message: fmt.Sprintf("%s (first %d observations of the batch were applied)", oerr.message, applied)}
			}
			s.writeErr(w, oerr)
			return
		}
		applied++
		if o.Skipped {
			skips++
		}
	}
	latency := time.Since(start) // the propose part is not observe latency
	_, best, found := sess.k.Best()
	resp := ObserveResponse{
		Applied: applied,
		Trials:  sess.k.Trials(),
		Found:   found,
	}
	if found {
		resp.BestSeconds = best
	}
	// The batch is applied and journaled; the next proposals ride on
	// the same response. A failed propose part still answers 200,
	// without proposals: the observations are committed, and the
	// client's next Propose surfaces the error.
	if req.Next != nil {
		if next, aerr := sess.propose(*req.Next, false); aerr == nil {
			resp.Proposals, resp.Outstanding = next.Proposals, next.Outstanding
		}
	}
	resp.Done = sess.done()
	sess.mu.Unlock()
	s.metrics.Observations.Add(int64(applied))
	s.metrics.Skips.Add(int64(skips))
	s.metrics.Proposals.Add(int64(len(resp.Proposals)))
	s.metrics.ObserveLatency.Observe(latency)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	tail := 32
	switch t := r.URL.Query().Get("trace"); t {
	case "":
	case "all":
		tail = 0
	default:
		n, err := strconv.Atoi(t)
		if err != nil || n < 0 {
			s.writeErr(w, errBadRequest("trace must be a non-negative integer or \"all\", got %q", t))
			return
		}
		tail = n
	}
	sess, aerr := s.store.Touch(r.PathValue("id"))
	if aerr != nil {
		s.writeErr(w, aerr)
		return
	}
	st := sess.status(tail)
	sess.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	sess, aerr := s.store.Touch(r.PathValue("id"))
	if aerr != nil {
		s.writeErr(w, aerr)
		return
	}
	res, aerr := sess.finish()
	sess.mu.Unlock()
	if aerr != nil {
		s.writeErr(w, aerr)
		return
	}
	s.store.Remove(sess)
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"ok":            false,
			"draining":      true,
			"sessions_live": s.metrics.SessionsLive.Load(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":            true,
		"sessions_live": s.metrics.SessionsLive.Load(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	doc := struct {
		MetricsView
		Surrogate SurrogateView `json:"surrogate"`
		Pool      *PoolView     `json:"pool,omitempty"`
	}{MetricsView: s.metrics.View(), Surrogate: s.store.SurrogateStats(), Pool: poolView(s.store.Pool())}
	writeJSON(w, http.StatusOK, doc)
}

// --- Plumbing --------------------------------------------------------

// readBody reads a capped request body. Oversize bodies 400 before a
// byte past the cap is buffered.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, *apiErr) {
	if r.Body == nil {
		return nil, nil
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		return nil, errBadRequest("read body: %v", err)
	}
	return body, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func (s *Server) writeErr(w http.ResponseWriter, e *apiErr) {
	switch {
	case e.status >= 500:
		s.metrics.Errors5xx.Add(1)
	case e.status >= 400:
		s.metrics.Errors4xx.Add(1)
	}
	switch e.code {
	case "conflict":
		s.metrics.Conflicts.Add(1)
	case "max_observations":
		s.metrics.ObsCapped.Add(1)
	}
	writeJSON(w, e.status, ErrorBody{Error: ErrorDetail{Code: e.code, Message: e.message}})
}
