package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/backend"
	"repro/internal/cli"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/stats"
)

// serviceSpec is the robotuned workload: closed-loop clients, each
// running wire sessions of random search one propose(1)+observe round
// trip at a time against a journaled server on loopback.
type serviceSpec struct {
	name    string
	clients int
	budget  int // round trips per session
	// quality sessions per client always run to the end, whatever
	// --seconds says; the quality metrics come from them.
	quality      int
	warmupBudget int // budget of each client's set-up session
	setups       int
}

func serviceWire() serviceSpec {
	return serviceSpec{name: "service-wire", clients: 2, budget: 2000, quality: 8, warmupBudget: 2000, setups: 3}
}

// inlineSpace is the 3-parameter space the clients tune.
const inlineSpace = `{
  "system": "bench",
  "params": [
    {"name": "a", "type": "int", "min": 1, "max": 1000, "default": 10},
    {"name": "b", "type": "float", "min": 0, "max": 1, "default": 0.5},
    {"name": "c", "type": "categorical", "choices": ["x", "y", "z"], "default": "x"}
  ]
}`

// objective is the system the clients tune: a smooth bowl over the
// inline space, in simulated seconds, with its optimum (100 s) inside
// the box.
func objective(c map[string]float64) float64 {
	a := math.Log(c["a"])/math.Log(1000) - 0.35
	b := c["b"] - 0.7
	return 100 + 60*a*a + 40*b*b + 15*c["c"]
}

// spanHeader carries a round trip's trace and span id from the client
// to the server, so the server's handler span nests under it.
const spanHeader = "X-Bench-Span"

// serviceEnv is one running server with its clients.
type serviceEnv struct {
	spec     serviceSpec
	space    *conf.Space
	journals string
	srv      *server.Server
	hs       *http.Server
	served   chan error
	clients  []*wireClient
	tracer   atomic.Pointer[recorder]
	// trials counts the observations every session on this server made,
	// warm-up included: the journal directory holds all of them.
	trials atomic.Int64
}

func startService(spec serviceSpec, space *conf.Space, dir string) (*serviceEnv, error) {
	journals, err := os.MkdirTemp(dir, "journals-")
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env := &serviceEnv{
		spec:     spec,
		space:    space,
		journals: journals,
		srv:      server.New(server.Options{JournalDir: journals}),
		served:   make(chan error, 1),
	}
	env.hs = &http.Server{Handler: env.handler(env.srv.Handler())}
	go func() { env.served <- env.hs.Serve(ln) }()
	url := "http://" + ln.Addr().String()
	for i := 0; i < spec.clients; i++ {
		env.clients = append(env.clients, newWireClient(url))
	}
	return env, nil
}

// stop closes the clients' connections, stops the listener, waits for
// Serve to return and seals the server's sessions.
func (env *serviceEnv) stop() error {
	for _, c := range env.clients {
		c.tp.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := env.hs.Shutdown(ctx)
	if serr := <-env.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	env.srv.Shutdown()
	return err
}

// handler times every round-trip request in a server span while a
// recorder is installed.
func (env *serviceEnv) handler(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := env.tracer.Load()
		tr, parent, ok := strings.Cut(r.Header.Get(spanHeader), "/")
		if rec == nil || !ok {
			inner.ServeHTTP(w, r)
			return
		}
		trace, _ := strconv.ParseInt(tr, 10, 64)
		id, _ := strconv.ParseInt(parent, 10, 64)
		name := "server.propose"
		if strings.HasSuffix(r.URL.Path, "/observe") {
			name = "server.observe"
		}
		sid := rec.begin(name, trace, id)
		inner.ServeHTTP(w, r)
		rec.end(sid)
	})
}

// journalBytes sums the size of the server's session journals.
func (env *serviceEnv) journalBytes() int64 {
	paths, _ := filepath.Glob(filepath.Join(env.journals, "*.jnl"))
	var n int64
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// wireClient is one closed-loop client. Its transport counts the bytes
// on its connections and, during a traced round trip, tells the server
// which span the request belongs to.
type wireClient struct {
	cl    *client.Client
	tp    *http.Transport
	trace atomic.Int64
	span  atomic.Int64
	bytes atomic.Int64
}

func newWireClient(url string) *wireClient {
	c := &wireClient{}
	var d net.Dialer
	c.tp = &http.Transport{
		MaxIdleConnsPerHost: 2,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return &countingConn{Conn: conn, n: &c.bytes}, nil
		},
	}
	c.cl = &client.Client{BaseURL: url, HTTP: &http.Client{Transport: c}}
	return c
}

// RoundTrip implements http.RoundTripper.
func (c *wireClient) RoundTrip(req *http.Request) (*http.Response, error) {
	if id := c.span.Load(); id != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, fmt.Sprintf("%d/%d", c.trace.Load(), id))
	}
	return c.tp.RoundTrip(req)
}

// countingConn counts the bytes read and written on a connection.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// wireSession is one finished (or abandoned) wire session.
type wireSession struct {
	wall     time.Duration
	rtts     []time.Duration
	complete bool // ran its whole budget
	best     float64
	cost     float64
	hash     uint64 // proposal sequence
}

// session runs one random-search session over the wire: create, then
// budget round trips, each proposing one trial and observing it, then
// finish. It stops early, abandoning the session, once deadline (when
// set) has passed. With a recorder every round trip is a wire span.
func (c *wireClient) session(env *serviceEnv, seed uint64, budget int, deadline time.Time, rec *recorder, trace int64) (ws wireSession, err error) {
	start := time.Now()
	sess, err := c.cl.Create(client.SessionSpec{
		Tuner:  "randomsearch",
		Space:  json.RawMessage(inlineSpace),
		Budget: budget,
		Seed:   seed,
		Sync:   "none",
	})
	if err != nil {
		return ws, fmt.Errorf("create: %w", err)
	}
	h := fnv.New64a()
	ws.best = math.Inf(1)
	for i := 0; i < budget; i++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		t0 := time.Now()
		var id int64
		if rec != nil {
			id = rec.begin("wire.rt", trace, 0)
			c.trace.Store(trace)
			c.span.Store(id)
		}
		err = c.roundTrip(sess, env.space, h, &ws)
		if rec != nil {
			c.span.Store(0)
			rec.end(id)
		}
		if err != nil {
			return ws, fmt.Errorf("round trip %d: %w", i, err)
		}
		ws.rtts = append(ws.rtts, time.Since(t0))
	}
	env.trials.Add(int64(len(ws.rtts)))
	ws.complete = len(ws.rtts) == budget
	if ws.complete {
		props, done, err := sess.Propose(1)
		if err != nil {
			return ws, fmt.Errorf("final propose: %w", err)
		}
		if len(props) != 0 || !done {
			return ws, fmt.Errorf("session still proposing after its %d-trial budget", budget)
		}
	}
	res, err := sess.Finish()
	if err != nil {
		return ws, fmt.Errorf("finish: %w", err)
	}
	if res.Trials != len(ws.rtts) || (len(ws.rtts) > 0 && res.BestSeconds != ws.best) {
		return ws, fmt.Errorf("server result (%d trials, best %v) disagrees with the client (%d trials, best %v)",
			res.Trials, res.BestSeconds, len(ws.rtts), ws.best)
	}
	ws.cost = res.Cost
	ws.hash = h.Sum64()
	ws.wall = time.Since(start)
	return ws, nil
}

// roundTrip proposes one trial, checks it lies in the space, and
// observes the objective at it.
func (c *wireClient) roundTrip(sess *client.Session, space *conf.Space, h io.Writer, ws *wireSession) error {
	props, _, err := sess.Propose(1)
	if err != nil {
		return err
	}
	if len(props) != 1 {
		return fmt.Errorf("propose(1) returned %d proposals", len(props))
	}
	cfg := props[0].Config
	if err := inSpace(space, cfg); err != nil {
		return err
	}
	hashConfig(h, space, cfg)
	sec := objective(cfg)
	if _, err := sess.Observe(client.Observation{Config: cfg, Seconds: sec, Completed: true}); err != nil {
		return err
	}
	ws.best = math.Min(ws.best, sec)
	return nil
}

// inSpace reports why a proposed configuration does not decode inside
// the space, or nil.
func inSpace(space *conf.Space, cfg map[string]float64) error {
	if len(cfg) != space.Dim() {
		return fmt.Errorf("proposal has %d parameters, space has %d", len(cfg), space.Dim())
	}
	for _, p := range space.Params() {
		v, ok := cfg[p.Name]
		if !ok {
			return fmt.Errorf("proposal lacks parameter %q", p.Name)
		}
		lo, hi, integral := p.Min, p.Max, p.Kind != conf.Float
		switch p.Kind {
		case conf.Bool:
			lo, hi = 0, 1
		case conf.Categorical:
			lo, hi = 0, float64(len(p.Choices)-1)
		}
		if !(v >= lo && v <= hi) || (integral && v != math.Trunc(v)) {
			return fmt.Errorf("proposal %s=%v lies outside the space", p.Name, v)
		}
	}
	return nil
}

func hashConfig(h io.Writer, space *conf.Space, cfg map[string]float64) {
	for _, p := range space.Params() {
		writeUint(h, math.Float64bits(cfg[p.Name]))
	}
}

// referenceHash is the proposal hash an in-process random-search
// stepper with the same seed produces — what every wire session must
// reproduce.
func referenceHash(space *conf.Space, seed uint64, budget int) (uint64, error) {
	st, err := cli.BuildStepper("randomsearch", space, budget, seed, "", "", core.Options{})
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	for !st.Done() {
		for _, p := range st.Propose(1) {
			cfg := p.Config.ToMap()
			hashConfig(h, space, cfg)
			st.Observe(p.Config, backend.EvalRecord{Config: p.Config, Seconds: objective(cfg), Completed: true})
		}
	}
	return h.Sum64(), nil
}

// sessionSeed is the seed of client i's k-th session.
func sessionSeed(seed uint64, i, k int) uint64 {
	return seed*1_000_003 + uint64(i)*10_007 + uint64(k)
}

// window is what the clients did in one timed window.
type window struct {
	sessions [][]wireSession // per client, in order
	rts      int
	elapsed  time.Duration
}

// window runs every client in a closed loop until d has passed (and
// each has finished its quality sessions).
func (env *serviceEnv) window(seed uint64, d time.Duration, rec *recorder) (window, error) {
	w := window{sessions: make([][]wireSession, len(env.clients))}
	errs := make([]error, len(env.clients))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, c := range env.clients {
		wg.Add(1)
		go func(i int, c *wireClient) {
			defer wg.Done()
			for k := 0; k < env.spec.quality || time.Now().Before(deadline); k++ {
				dl := deadline
				if k < env.spec.quality {
					dl = time.Time{}
				}
				ws, err := c.session(env, sessionSeed(seed, i, k), env.spec.budget, dl, rec, int64(i*1_000_000+k+1))
				if err != nil {
					errs[i] = fmt.Errorf("client %d session %d: %w", i, k, err)
					return
				}
				w.sessions[i] = append(w.sessions[i], ws)
			}
		}(i, c)
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	for _, ss := range w.sessions {
		for _, s := range ss {
			w.rts += len(s.rtts)
		}
	}
	return w, errors.Join(errs...)
}

// checkQuality checks that every quality session of w ran its whole
// budget and proposed exactly what the in-process stepper does.
func (env *serviceEnv) checkQuality(rep *report, w window, seed uint64) {
	for i, ss := range w.sessions {
		for k := 0; k < env.spec.quality && k < len(ss); k++ {
			ref, err := referenceHash(env.space, sessionSeed(seed, i, k), env.spec.budget)
			rep.ops(1, err)
			rep.check(ss[k].complete && ss[k].hash == ref,
				"client %d session %d: wire proposals differ from the in-process stepper with the same seed", i, k)
		}
	}
}

// warmup runs one short session per client, concurrently, and returns
// a hash over their proposal sequences.
func (env *serviceEnv) warmup(seed uint64) (uint64, error) {
	hashes := make([]uint64, len(env.clients))
	errs := make([]error, len(env.clients))
	var wg sync.WaitGroup
	for i, c := range env.clients {
		wg.Add(1)
		go func(i int, c *wireClient) {
			defer wg.Done()
			ws, err := c.session(env, sessionSeed(seed+warmSeed, i, 0), env.spec.warmupBudget, time.Time{}, nil, 0)
			hashes[i], errs[i] = ws.hash, err
		}(i, c)
	}
	wg.Wait()
	h := fnv.New64a()
	for _, v := range hashes {
		writeUint(h, v)
	}
	return h.Sum64(), errors.Join(errs...)
}

// runService runs the service workload: set-up spec.setups times (the
// last server stays up), then one timed window — or, traced, a plain
// window and a traced one of half the length each.
func runService(spec serviceSpec, cfg runConfig) *report {
	rep := newReport()
	space, err := conf.ParseSpace([]byte(inlineSpace))
	if err != nil {
		rep.fail(err)
		return rep
	}
	dir, err := os.MkdirTemp(cfg.workdir, spec.name+"-")
	if err != nil {
		rep.fail(err)
		return rep
	}
	defer os.RemoveAll(dir)

	var env *serviceEnv
	var setupTimes []float64
	var setupHash uint64
	for i := 0; i < spec.setups; i++ {
		if env != nil {
			rep.ops(1, env.stop())
		}
		start := time.Now()
		env, err = startService(spec, space, dir)
		if err != nil {
			rep.fail(err)
			return rep
		}
		h, err := env.warmup(cfg.seed)
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		rep.ops(spec.clients, err)
		if err != nil {
			rep.ops(1, env.stop())
			return rep
		}
		if i == 0 {
			setupHash = h
		} else {
			rep.check(h == setupHash, "set-up %d: warm-up sessions differ from set-up 1 under the same seed", i+1)
		}
	}
	defer func() { rep.ops(1, env.stop()) }()
	rep.samples["setups"] = spec.setups
	if cfg.trace {
		traceService(env, cfg, rep)
		return rep
	}
	w, err := env.window(cfg.seed, cfg.seconds, nil)
	rep.ops(w.rts, err)
	if err != nil {
		return rep
	}
	env.checkQuality(rep, w, cfg.seed)

	var walls, rtts, best, cost []float64
	sessions := 0
	for _, ss := range w.sessions {
		for k, s := range ss {
			sessions++
			for _, d := range s.rtts {
				rtts = append(rtts, float64(d)/float64(time.Millisecond))
			}
			if s.complete {
				walls = append(walls, s.wall.Seconds())
			}
			if k < spec.quality {
				best = append(best, s.best)
				cost = append(cost, s.cost)
			}
		}
	}
	rep.set("session_wall_s", stats.Median(walls), "s")
	rep.set("step_ms_p50", stats.Percentile(rtts, 50), "ms")
	rep.set("step_ms_p95", stats.Percentile(rtts, 95), "ms")
	rep.set("steps_per_s", float64(w.rts)/w.elapsed.Seconds(), "1/s")
	rep.set("best_found_s", geomean(best), "sim-s")
	rep.set("search_cost_s", geomean(cost), "sim-s")
	rep.set("setup_s", stats.Median(setupTimes), "s")
	rep.samples["sessions"] = sessions
	rep.samples["quality_sessions"] = len(best)
	rep.samples["steps"] = len(rtts)
	return rep
}

// traceService runs a plain window, then a traced one, and reports the
// per-layer metrics of the traced round trips.
func traceService(env *serviceEnv, cfg runConfig, rep *report) {
	half := cfg.seconds / 2
	var m0, m1 runtime.MemStats
	bytes0 := env.wireBytes()
	runtime.ReadMemStats(&m0)
	plain, err := env.window(cfg.seed, half, nil)
	runtime.ReadMemStats(&m1)
	bytes1 := env.wireBytes()
	rss := peakRSSMB()
	rep.ops(plain.rts, err)
	if err != nil {
		return
	}
	rec := newRecorder()
	env.tracer.Store(rec)
	traced, err := env.window(cfg.seed, half, rec)
	env.tracer.Store(nil)
	rep.ops(traced.rts, err)
	if err != nil {
		return
	}
	env.checkQuality(rep, plain, cfg.seed)
	env.checkQuality(rep, traced, cfg.seed)

	lr := layerInput{
		spans:         rec.snapshot(),
		steps:         plain.rts,
		journalBytes:  env.journalBytes(),
		journalTrials: int(env.trials.Load()),
		wireBytes:     bytes1 - bytes0,
		memBefore:     m0,
		memAfter:      m1,
		memWall:       plain.elapsed,
		peakRSS:       rss,
	}
	for _, ss := range traced.sessions {
		for _, s := range ss {
			for _, d := range s.rtts {
				lr.wall += d
			}
		}
	}
	plainRate := float64(plain.rts) / plain.elapsed.Seconds()
	tracedRate := float64(traced.rts) / traced.elapsed.Seconds()
	lr.overhead = plainRate/tracedRate - 1
	lr.emit(rep)
	rep.samples["steps"] = traced.rts
	rep.samples["spans"] = len(lr.spans)
	if cfg.spans != "" {
		rep.ops(1, writeSpans(cfg.spans, lr.spans))
	}
}

// wireBytes sums the bytes on every client's connections so far.
func (env *serviceEnv) wireBytes() int64 {
	var n int64
	for _, c := range env.clients {
		n += c.bytes.Load()
	}
	return n
}
