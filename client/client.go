// Package client is the thin Go client for robotuned, the networked
// ask/tell tuning service. It mirrors the in-process stepper shape —
// Propose returns trials, Observe reports outcomes — over HTTP, so a
// driver loop written against a local tuners.Stepper ports to a live
// server by swapping the two calls.
//
//	cl := client.New("http://127.0.0.1:7077")
//	sess, err := cl.Create(client.SessionSpec{
//	    Tuner:  "robotune",
//	    Space:  json.RawMessage(`"spark"`),
//	    Budget: 100,
//	    Seed:   7,
//	})
//	for {
//	    props, done, err := sess.Propose(0)
//	    if len(props) == 0 && done { break }
//	    for _, p := range props {
//	        rec := runOnCluster(p.Config, p.Cap)
//	        sess.Observe(client.Observation{Config: p.Config, Seconds: rec.Seconds, Completed: true})
//	    }
//	}
//	res, err := sess.Finish()
//
// A Session pipelines such a closed loop: the Observe that resolves
// the last proposal the caller holds also asks the server for the next
// ones, and the next Propose serves them without a request, so the
// loop costs one request per trial. When a response that carried
// proposals is lost, the handle reclaims them (see Session).
// The two-call protocol stays valid for clients that never pipeline.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/server"
)

// Wire types are shared with the server package so the two cannot
// drift; the aliases keep client code free of the internal import.
type (
	SessionSpec     = server.SessionSpec
	SpecOptions     = server.SpecOptions
	Proposal        = server.WireProposal
	Observation     = server.Observation
	ObserveResponse = server.ObserveResponse
	StatusResponse  = server.StatusResponse
	ResultResponse  = server.ResultResponse
)

// APIError is a non-2xx server response, decoded from the uniform
// error envelope.
type APIError struct {
	Status  int    // HTTP status
	Code    string // machine-readable class: bad_request, conflict, throttled, ...
	Message string
	// RetryAfter is the server's Retry-After header when it sent one
	// (0 otherwise); the retry policy waits at least this long.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("robotuned: %s (%d %s)", e.Message, e.Status, e.Code)
}

// IsConflict reports a 409: the observation did not match a pending
// proposal. After a reconnect this usually means the server already
// has the observation (it was journaled before the crash) — drivers
// treat it as already-applied.
func IsConflict(err error) bool { return hasStatus(err, 409) }

// IsMaxObservations reports the server's per-session observation cap:
// the session will never accept another evaluated observation, so
// drivers should skip their outstanding proposals and finish the
// session rather than retry. Matched by code, not status — the cap
// shares 409 with IsConflict but means "stop", not "already applied".
func IsMaxObservations(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == "max_observations"
}

// IsThrottled reports a 429: per-tenant backpressure, retry later.
func IsThrottled(err error) bool { return hasStatus(err, 429) }

// IsNotFound reports a 404.
func IsNotFound(err error) bool { return hasStatus(err, 404) }

// IsFinished reports a 410: the session is sealed. An Observe retried
// after a lost answer gets it when the first attempt was applied and,
// being the session's last observation, sealed it: like a 409 there,
// it means the observation was applied.
func IsFinished(err error) bool { return hasStatus(err, 410) }

func hasStatus(err error, status int) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == status
}

// IsRetryable reports whether an error is transient: a server answer
// of 429 (throttled), 502, or 503 (overload, a restarting or draining
// peer behind a load balancer), or a transport-level failure such as a
// connection reset or refused dial. Context cancellation is never
// retryable — the caller asked to stop. Client errors (4xx other than
// 429) and body-decoding failures are permanent.
func IsRetryable(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var ae *APIError
	if errors.As(err, &ae) {
		switch ae.Status {
		case 429, 502, 503:
			return true
		}
		return false
	}
	// http.Client wraps every transport failure — reset, refused,
	// EOF mid-body — in a url.Error; anything else (JSON decode,
	// request construction) is a bug worth surfacing, not retrying.
	var ue *url.Error
	return errors.As(err, &ue)
}

// RetryPolicy makes Session.Propose and Session.Observe retry
// transient failures (see IsRetryable) with exponential backoff and
// jitter, honoring the server's Retry-After when one is sent. The
// zero value retries nothing. Create, Finish, and the status calls
// are never retried automatically: Create is not idempotent, and the
// others are cheap for the driver to repeat with its own policy.
//
// Observing after a retried send can answer 409 conflict when the
// first attempt was applied but its response was lost, or 410 finished
// when that attempt was the session's last observation and sealed it;
// drivers treat either as already-applied (see IsConflict and
// IsFinished). A Propose attempt retried after a lost answer reclaims
// what that answer carried (see Session).
type RetryPolicy struct {
	// MaxRetries is how many times a failed call is re-sent beyond
	// the first attempt (0 = no retry).
	MaxRetries int
	// BaseBackoff is the first wait, doubled each retry (default
	// 100ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the doubling (default 2s).
	MaxBackoff time.Duration
	// Jitter spreads each wait uniformly over ±Jitter of its nominal
	// value so a restarted server is not hit by every client at once
	// (default 0.2; negative = none).
	Jitter float64
	// Sleep is the wait function (nil = time.Sleep); tests inject a
	// recorder.
	Sleep func(time.Duration)
}

// backoff is the wait before retry number attempt (0-based), floored
// by the server's Retry-After when the error carries one.
func (p RetryPolicy) backoff(attempt int, err error) time.Duration {
	base, ceil := p.BaseBackoff, p.MaxBackoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if ceil <= 0 {
		ceil = 2 * time.Second
	}
	d := base << uint(attempt)
	if d <= 0 || d > ceil {
		d = ceil
	}
	jitter := p.Jitter
	if jitter == 0 {
		jitter = 0.2
	}
	if jitter > 0 {
		d = time.Duration(float64(d) * (1 - jitter + 2*jitter*rand.Float64()))
	}
	var ae *APIError
	if errors.As(err, &ae) && ae.RetryAfter > d {
		d = ae.RetryAfter // the server knows its own backpressure window
	}
	return d
}

func (p RetryPolicy) sleep(d time.Duration) {
	if p.Sleep != nil {
		p.Sleep(d)
		return
	}
	time.Sleep(d)
}

// Client talks to one robotuned server.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:7077".
	BaseURL string
	// Tenant is sent as X-Robotune-Tenant ("" = the default tenant).
	Tenant string
	// HTTP is the transport (http.DefaultClient when nil).
	HTTP *http.Client
	// Retry makes Propose and Observe survive transient failures; the
	// zero value retries nothing.
	Retry RetryPolicy
}

// New returns a client for the server at baseURL.
func New(baseURL string) *Client {
	return &Client{BaseURL: baseURL}
}

// Create starts a session from spec and returns a handle to it.
func (c *Client) Create(spec SessionSpec) (*Session, error) {
	var st StatusResponse
	if err := c.do("POST", "/v1/sessions", spec, &st); err != nil {
		return nil, err
	}
	return &Session{c: c, ID: st.ID}, nil
}

// Attach returns a handle to an existing session (possibly created by
// a previous process against the same journal directory), verifying
// it exists.
func (c *Client) Attach(id string) (*Session, error) {
	s := &Session{c: c, ID: id}
	if _, err := s.Status(); err != nil {
		return nil, err
	}
	return s, nil
}

// Health checks /healthz.
func (c *Client) Health() error {
	return c.do("GET", "/healthz", nil, nil)
}

func (c *Client) do(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Tenant != "" {
		req.Header.Set("X-Robotune-Tenant", c.Tenant)
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, server.MaxBodyBytes))
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		retryAfter := parseRetryAfter(resp.Header.Get("Retry-After"))
		var eb server.ErrorBody
		if json.Unmarshal(data, &eb) == nil && eb.Error.Code != "" {
			return &APIError{Status: resp.StatusCode, Code: eb.Error.Code,
				Message: eb.Error.Message, RetryAfter: retryAfter}
		}
		return &APIError{Status: resp.StatusCode, Code: "http_error", RetryAfter: retryAfter,
			Message: fmt.Sprintf("%s %s: %s", method, path, bytes.TrimSpace(data))}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// retry runs send under the client's retry policy: transient failures
// (IsRetryable) are re-sent with backoff until the policy is spent.
func (c *Client) retry(send func() error) error {
	for attempt := 0; ; attempt++ {
		err := send()
		if err == nil || attempt >= c.Retry.MaxRetries || !IsRetryable(err) {
			return err
		}
		c.Retry.sleep(c.Retry.backoff(attempt, err))
	}
}

// mayBeApplied reports whether a failed request may have been applied
// by the server with its answer lost: the answer never arrived (a
// transport error), or a gateway in front of the server answered in
// its place (502, 504). robotuned's own error answers hand out no
// proposals.
func mayBeApplied(err error) bool {
	var ae *APIError
	if !errors.As(err, &ae) {
		return err != nil
	}
	return ae.Status == http.StatusBadGateway || ae.Status == http.StatusGatewayTimeout
}

// parseRetryAfter reads a Retry-After header: delay seconds or an
// HTTP-date ("" or garbage = 0).
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if when, err := http.ParseTime(h); err == nil {
		if d := time.Until(when); d > 0 {
			return d
		}
	}
	return 0
}

// Session is a handle to one server-side tuning session. It is safe
// for concurrent use.
//
// A handle pipelines a closed propose/observe loop: an Observe that
// resolves every proposal the handle has handed its caller asks for
// the next proposals in the same request, and the next Propose serves
// them without one.
//
// When an answer that carried proposals may have been lost — a
// pipelined Observe's or a propose request's — the handle's next
// propose request, a retried attempt included, reclaims the session's
// outstanding proposals, but only while the handle runs none of them.
// A refusal the server sent before changing any state (429, 503)
// triggers no reclaim. On a session several clients share, a reclaim
// also hands out the other clients' running trials, so a lost answer
// costs them a duplicate evaluation.
type Session struct {
	c  *Client
	ID string

	// mu guards the state below; it is never held across a request.
	mu sync.Mutex
	// lastN is the n of the latest Propose, which a pipelined Observe
	// asks for.
	lastN int
	// out holds the configurations handed to the caller and not yet
	// seen observed.
	out []map[string]float64
	// held is what a pipelined Observe brought back and no Propose has
	// served yet: proposals, whether the answer said done, and the n
	// the Observe asked for.
	held     []Proposal
	heldDone bool
	heldN    int
	// inflight counts this handle's requests that may hand out
	// proposals.
	inflight int
	// reclaim is set when an answer that carried proposals may have
	// been lost, until a propose request reclaims them.
	reclaim bool
}

// Propose asks for up to n trials (n <= 0 = as many as the tuner can
// usefully emit). done is true when the tuner will never propose
// again; an empty non-done batch means the tuner is waiting for
// outstanding observations.
//
// Proposals a pipelined Observe brought back are served first: up to
// n of them, or all of them when n <= 0. They are what a propose
// request for the Observe's n would have answered when it landed, so
// the call sends no request, unless n asks for more than that n did
// and the held answer is not done: then the same call asks the server
// for the rest. If that request fails, the call returns the held
// proposals alone, and the next request surfaces the error.
func (s *Session) Propose(n int) (props []Proposal, done bool, err error) {
	s.mu.Lock()
	s.lastN = n
	if len(s.held) > 0 || s.heldDone {
		want := batchSize(n)
		k := min(len(s.held), want)
		props, s.held = s.held[:k:k], s.held[k:]
		if len(s.held) == 0 {
			done = s.heldDone
			s.held, s.heldDone = nil, false
		}
		s.handOut(props)
		if done || want <= batchSize(s.heldN) || k == want {
			s.mu.Unlock()
			return props, done, nil
		}
		n = want - k
	}
	s.inflight++
	s.mu.Unlock()

	var resp server.ProposeResponse
	var prev error // the failure of the attempt before
	reclaimed := false
	err = s.c.retry(func() error {
		s.mu.Lock()
		s.reclaim = s.reclaim || mayBeApplied(prev)
		reclaimed = s.reclaim && s.idle()
		s.mu.Unlock()
		req := server.ProposeRequest{N: n, Reclaim: reclaimed}
		prev = s.c.do("POST", "/v1/sessions/"+s.ID+"/propose", req, &resp)
		return prev
	})

	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight--
	if err != nil {
		s.reclaim = s.reclaim || mayBeApplied(err)
		if len(props) > 0 {
			return props, false, nil
		}
		return nil, false, err
	}
	if reclaimed {
		s.reclaim = false
	}
	s.handOut(resp.Proposals)
	return append(props, resp.Proposals...), resp.Done, nil
}

// batchSize is the number of proposals a request for n asks for.
func batchSize(n int) int {
	if n <= 0 || n > server.MaxBatch {
		return server.MaxBatch
	}
	return n
}

// Observe reports evaluated trials back. Each observation's Config
// must exactly match a proposal from Propose. When the observations
// resolve every proposal the handle has handed out, the request also
// asks for the next proposals (as many as the last Propose asked for);
// the next Propose serves them, so the returned response carries none.
func (s *Session) Observe(obs ...Observation) (ObserveResponse, error) {
	req := server.ObserveRequest{Observations: obs}
	next := 0
	s.mu.Lock()
	if len(s.held) == 0 && !s.heldDone {
		if k := len(s.matches(obs)); k > 0 && k == len(s.out) {
			next = max(s.lastN, 0)
			req.Next = &next
			s.inflight++
		}
	}
	s.mu.Unlock()

	var resp ObserveResponse
	lost := false // an attempt may have been applied without its answer
	err := s.c.retry(func() error {
		err := s.c.do("POST", "/v1/sessions/"+s.ID+"/observe", req, &resp)
		lost = lost || mayBeApplied(err)
		return err
	})

	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil || IsConflict(err) {
		s.resolve(obs)
	}
	if req.Next == nil {
		return resp, err
	}
	s.inflight--
	switch {
	case err == nil:
		s.held = append(s.held, resp.Proposals...)
		s.heldDone = s.heldDone || resp.Done
		s.heldN = next
	case lost:
		// The server may have applied the observations and handed out
		// the next proposals into the lost answer.
		s.reclaim = true
	}
	resp.Proposals = nil
	return resp, err
}

// handOut records proposals as handed to the caller.
func (s *Session) handOut(props []Proposal) {
	for _, p := range props {
		s.out = append(s.out, p.Config)
	}
}

// idle reports whether the handle runs none of the session's
// proposals and expects none: nothing handed out unobserved, nothing
// held, and no other request in flight that may hand some out. Only
// an idle handle reclaims.
func (s *Session) idle() bool {
	return len(s.out) == 0 && len(s.held) == 0 && s.inflight == 1
}

// matches returns the indices in out of the distinct handed-out
// proposals the observations answer, each observation taking the
// earliest one left.
func (s *Session) matches(obs []Observation) []int {
	var idx []int
	for _, o := range obs {
		for i, c := range s.out {
			if !slices.Contains(idx, i) && sameConfig(c, o.Config) {
				idx = append(idx, i)
				break
			}
		}
	}
	return idx
}

// resolve drops the handed-out proposals the observations answer.
func (s *Session) resolve(obs []Observation) {
	idx := s.matches(obs)
	slices.Sort(idx)
	for j := len(idx) - 1; j >= 0; j-- {
		s.out = slices.Delete(s.out, idx[j], idx[j]+1)
	}
}

// sameConfig compares configurations value by value; JSON round-trips
// float64 exactly, so an echoed proposal compares equal.
func sameConfig(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// Skip abandons a proposed trial without running it; the tuner moves
// on and no evaluation is charged.
func (s *Session) Skip(config map[string]float64) (ObserveResponse, error) {
	return s.Observe(Observation{Config: config, Skipped: true})
}

// Status fetches the session's current state (a bounded trace tail).
func (s *Session) Status() (StatusResponse, error) {
	var st StatusResponse
	err := s.c.do("GET", "/v1/sessions/"+s.ID, nil, &st)
	return st, err
}

// FullStatus fetches the state with the complete trace.
func (s *Session) FullStatus() (StatusResponse, error) {
	var st StatusResponse
	err := s.c.do("GET", "/v1/sessions/"+s.ID+"?trace=all", nil, &st)
	return st, err
}

// Finish seals the session (even mid-campaign) and returns its
// result. The journal on disk stays readable afterwards.
func (s *Session) Finish() (ResultResponse, error) {
	var res ResultResponse
	err := s.c.do("DELETE", "/v1/sessions/"+s.ID, nil, &res)
	return res, err
}
