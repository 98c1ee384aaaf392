package server

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/bo"
	"repro/internal/journal"
	"repro/internal/schedule"
)

// Store is the sharded in-memory session table. Lookups hash the
// session id onto one of N mutex-striped shards, so concurrent
// traffic on different sessions never serializes on a global lock;
// per-tenant accounting lives behind its own small mutex because it
// is touched once per request, not once per trial.
type Store struct {
	opts    Options
	shards  []shard
	metrics *Metrics
	// pool is the shared propose-compute pool (nil when Options
	// .ProposeSlots is 0); every session built by this store charges
	// its Propose calls against it in the session's priority class.
	pool *schedule.Pool

	tenantMu sync.Mutex
	tenants  map[string]*tenantState

	closedMu sync.RWMutex
	closed   bool
}

type shard struct {
	mu sync.Mutex
	m  map[string]*session
	// flight serializes rehydration per session id so two concurrent
	// touches of an evicted session open its journal exactly once.
	flight map[string]chan struct{}
}

type tenantState struct {
	live   int
	tokens float64
	last   time.Time
}

// newStore builds the store; opts must already have defaults applied.
func newStore(opts Options, m *Metrics) *Store {
	st := &Store{opts: opts, metrics: m, tenants: make(map[string]*tenantState)}
	if opts.ProposeSlots > 0 {
		st.pool = schedule.NewPool(opts.ProposeSlots)
	}
	st.shards = make([]shard, opts.Shards)
	for i := range st.shards {
		st.shards[i].m = make(map[string]*session)
		st.shards[i].flight = make(map[string]chan struct{})
	}
	return st
}

func (st *Store) shardFor(id string) *shard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return &st.shards[h.Sum32()%uint32(len(st.shards))]
}

// newID returns a fresh session id, unique across restarts (ids are
// random, and writeSpecFile refuses an id whose spec file exists).
func newID() (string, error) {
	var b [9]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return "s" + hex.EncodeToString(b[:]), nil
}

// validID rejects ids that could escape the journal directory.
func validID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, r := range id {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '-' || r == '_') {
			return false
		}
	}
	return true
}

func (st *Store) specPath(id string) string {
	return filepath.Join(st.opts.JournalDir, id+".spec.json")
}

func (st *Store) journalPath(id string) string {
	return filepath.Join(st.opts.JournalDir, id+".jnl")
}

// persistedSpec is the on-disk session record: the validated spec
// plus the owning tenant, so rehydration restores accounting too.
type persistedSpec struct {
	Tenant string      `json:"tenant"`
	Spec   SessionSpec `json:"spec"`
}

// Create builds a new session, persists its spec (when the server is
// durable) and registers it.
func (st *Store) Create(tenant string, ps ParsedSpec) (*session, *apiErr) {
	if err := st.checkClosed(); err != nil {
		return nil, err
	}
	if aerr := st.admitSession(tenant); aerr != nil {
		return nil, aerr
	}
	id, err := newID()
	if err != nil {
		st.releaseSession(tenant)
		return nil, errInternal("id generation failed: %v", err)
	}
	jnlPath := ""
	if st.opts.JournalDir != "" {
		if err := os.MkdirAll(st.opts.JournalDir, 0o755); err != nil {
			st.releaseSession(tenant)
			return nil, errInternal("journal dir: %v", err)
		}
		if err := writeSpecFile(st.specPath(id), persistedSpec{Tenant: tenant, Spec: ps.Spec}); err != nil {
			st.releaseSession(tenant)
			return nil, errInternal("persist spec: %v", err)
		}
		jnlPath = st.journalPath(id)
	}
	s, err := newSession(id, tenant, ps, jnlPath, st.opts.Now().Unix(), st.opts.MaxObservations, st.pool)
	if err != nil {
		st.releaseSession(tenant)
		if st.opts.JournalDir != "" {
			os.Remove(st.specPath(id))
		}
		return nil, errInternal("build session: %v", err)
	}
	sh := st.shardFor(id)
	sh.mu.Lock()
	sh.m[id] = s
	sh.mu.Unlock()
	st.metrics.SessionsCreated.Add(1)
	st.metrics.SessionsLive.Add(1)
	return s, nil
}

// writeSpecFile persists the spec atomically and durably
// (journal.WriteFile), failing if a session with this id already
// exists on disk.
func writeSpecFile(path string, ps persistedSpec) error {
	if _, err := os.Stat(path); err == nil {
		return fmt.Errorf("session spec %s already exists", path)
	}
	data, err := json.MarshalIndent(ps, "", "  ")
	if err != nil {
		return err
	}
	return journal.WriteFile(path, data)
}

// Get returns the live session for id, rehydrating it from disk when
// it was evicted or the server restarted. The returned session is
// registered; callers lock it before use and must re-check evicted
// (Touch does this loop for them).
func (st *Store) Get(id string) (*session, *apiErr) {
	if !validID(id) {
		return nil, errBadRequest("invalid session id")
	}
	if err := st.checkClosed(); err != nil {
		return nil, err
	}
	sh := st.shardFor(id)
	for attempt := 0; attempt < 100; attempt++ {
		sh.mu.Lock()
		if s, ok := sh.m[id]; ok {
			sh.mu.Unlock()
			return s, nil
		}
		if st.opts.JournalDir == "" {
			sh.mu.Unlock()
			return nil, errNotFound("unknown session %q", id)
		}
		// Miss: rehydrate, serialized per id.
		if ch, inFlight := sh.flight[id]; inFlight {
			sh.mu.Unlock()
			<-ch
			continue // re-check the map
		}
		ch := make(chan struct{})
		sh.flight[id] = ch
		sh.mu.Unlock()

		s, aerr := st.rehydrate(id)

		sh.mu.Lock()
		delete(sh.flight, id)
		close(ch)
		if aerr != nil {
			sh.mu.Unlock()
			return nil, aerr
		}
		sh.m[id] = s
		sh.mu.Unlock()
		st.metrics.SessionsRehydrated.Add(1)
		st.metrics.SessionsLive.Add(1)
		return s, nil
	}
	return nil, errInternal("session %q thrashing between eviction and rehydration", id)
}

// rehydrate rebuilds a session from its persisted spec and journal.
func (st *Store) rehydrate(id string) (*session, *apiErr) {
	data, err := os.ReadFile(st.specPath(id))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, errNotFound("unknown session %q", id)
		}
		return nil, errInternal("read spec: %v", err)
	}
	var ps persistedSpec
	if err := json.Unmarshal(data, &ps); err != nil {
		return nil, errInternal("corrupt spec for session %q: %v", id, err)
	}
	parsed, err := ValidateSessionSpec(ps.Spec)
	if err != nil {
		return nil, errInternal("persisted spec for session %q no longer validates: %v", id, err)
	}
	tenant := ps.Tenant
	if tenant == "" {
		tenant = "default"
	}
	s, err := newSession(id, tenant, parsed, st.journalPath(id), st.opts.Now().Unix(), st.opts.MaxObservations, st.pool)
	if err != nil {
		return nil, errInternal("rehydrate session %q: %v", id, err)
	}
	st.bumpTenantLive(tenant, 1)
	return s, nil
}

// Touch returns the session locked and time-stamped, retrying when an
// eviction races the lookup. Callers must Unlock it.
func (st *Store) Touch(id string) (*session, *apiErr) {
	for {
		s, aerr := st.Get(id)
		if aerr != nil {
			return nil, aerr
		}
		s.mu.Lock()
		if s.evicted {
			s.mu.Unlock()
			continue // janitor won the race; rehydrate on the next Get
		}
		s.lastTouch.Store(st.opts.Now().Unix())
		return s, nil
	}
}

// Remove unregisters a finished session (its journal is already
// closed). The spec and journal stay on disk: a later touch
// rehydrates the sealed session and serves its recorded result.
func (st *Store) Remove(s *session) {
	sh := st.shardFor(s.id)
	sh.mu.Lock()
	if cur, ok := sh.m[s.id]; ok && cur == s {
		delete(sh.m, s.id)
		st.metrics.SessionsLive.Add(-1)
		st.metrics.SessionsFinished.Add(1)
	}
	sh.mu.Unlock()
	st.bumpTenantLive(s.tenant, -1)
}

// EvictIdle suspends sessions untouched for longer than ttl: their
// journals are synced and closed, and the next touch rehydrates them
// from disk. Returns how many sessions were evicted.
// On an ephemeral server (no journal dir) nothing is ever evicted —
// there would be nothing to rehydrate from.
func (st *Store) EvictIdle(ttl time.Duration) int {
	if st.opts.JournalDir == "" || ttl <= 0 {
		return 0
	}
	cutoff := st.opts.Now().Add(-ttl).Unix()
	evicted := 0
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		for id, s := range sh.m {
			if s.lastTouch.Load() > cutoff {
				continue
			}
			s.mu.Lock()
			if s.lastTouch.Load() > cutoff { // touched while we waited
				s.mu.Unlock()
				continue
			}
			s.evicted = true
			s.suspend()
			s.mu.Unlock()
			delete(sh.m, id)
			st.bumpTenantLive(s.tenant, -1)
			st.metrics.SessionsLive.Add(-1)
			st.metrics.SessionsEvicted.Add(1)
			evicted++
		}
		sh.mu.Unlock()
	}
	return evicted
}

// Shutdown suspends every live session, syncing and closing its
// journal. The store rejects all traffic afterwards.
func (st *Store) Shutdown() {
	st.closedMu.Lock()
	st.closed = true
	st.closedMu.Unlock()
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		for id, s := range sh.m {
			s.mu.Lock()
			s.evicted = true
			s.suspend()
			s.mu.Unlock()
			delete(sh.m, id)
			st.metrics.SessionsLive.Add(-1)
		}
		sh.mu.Unlock()
	}
}

func (st *Store) checkClosed() *apiErr {
	st.closedMu.RLock()
	defer st.closedMu.RUnlock()
	if st.closed {
		return &apiErr{status: 503, code: "shutting_down", message: "server is shutting down"}
	}
	return nil
}

// SurrogateStats sums the refit-cadence accounting of every live
// session whose stepper exposes it. Sessions are collected under the
// shard locks, then each is sampled under its own lock — never both at
// once, matching the lock order everywhere else in the store.
func (st *Store) SurrogateStats() SurrogateView {
	type statser interface {
		SurrogateStats() (bo.RefitStats, bool)
	}
	var live []*session
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		for _, s := range sh.m {
			live = append(live, s)
		}
		sh.mu.Unlock()
	}
	var v SurrogateView
	for _, s := range live {
		s.mu.Lock()
		ss, ok := s.st.(statser)
		var rs bo.RefitStats
		if ok {
			rs, ok = ss.SurrogateStats()
		}
		s.mu.Unlock()
		if !ok {
			continue
		}
		v.Sessions++
		v.HyperRefits += rs.HyperRefits
		v.PosteriorRefits += rs.PosteriorRefits
		v.Extends += rs.Extends
		v.RefitSeconds += rs.RefitSeconds
		v.Observations += rs.Observations
		if rs.Sparse {
			v.SparseSessions++
			v.ActivePoints += rs.ActiveSize
		} else {
			v.ActivePoints += rs.Observations
		}
	}
	return v
}

// Pool exposes the propose-compute pool (nil when unbounded); the
// metrics endpoint snapshots its preemption and wait accounting.
func (st *Store) Pool() *schedule.Pool { return st.pool }

// List returns the ids of live (in-memory) sessions, in no fixed
// order; informational only.
func (st *Store) List() []string {
	var ids []string
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		for id := range sh.m {
			ids = append(ids, id)
		}
		sh.mu.Unlock()
	}
	return ids
}

// --- Per-tenant budgets ----------------------------------------------

func tenantOf(header string) string {
	t := strings.TrimSpace(header)
	if t == "" {
		return "default"
	}
	if len(t) > 128 {
		t = t[:128]
	}
	return t
}

// admitSession charges one live session against the tenant's cap.
func (st *Store) admitSession(tenant string) *apiErr {
	st.tenantMu.Lock()
	defer st.tenantMu.Unlock()
	ts := st.tenant(tenant)
	if st.opts.TenantSessions > 0 && ts.live >= st.opts.TenantSessions {
		st.metrics.Throttled.Add(1)
		return errThrottled("tenant %q has %d live sessions (cap %d); finish or wait for eviction",
			tenant, ts.live, st.opts.TenantSessions)
	}
	ts.live++
	return nil
}

func (st *Store) releaseSession(tenant string) { st.bumpTenantLive(tenant, -1) }

func (st *Store) bumpTenantLive(tenant string, delta int) {
	st.tenantMu.Lock()
	defer st.tenantMu.Unlock()
	ts := st.tenant(tenant)
	ts.live += delta
	if ts.live < 0 {
		ts.live = 0
	}
}

// chargeEvals spends n observation tokens from the tenant's bucket
// (refilled at TenantEvalsPerSec, burst TenantBurst). Zero rate means
// unlimited. This is backpressure, not billing: a 429 tells the
// client to slow down, nothing is partially applied.
func (st *Store) chargeEvals(tenant string, n int) *apiErr {
	if st.opts.TenantEvalsPerSec <= 0 {
		return nil
	}
	st.tenantMu.Lock()
	defer st.tenantMu.Unlock()
	ts := st.tenant(tenant)
	now := st.opts.Now()
	burst := float64(st.opts.TenantBurst)
	ts.tokens += now.Sub(ts.last).Seconds() * st.opts.TenantEvalsPerSec
	ts.last = now
	if ts.tokens > burst {
		ts.tokens = burst
	}
	if ts.tokens < float64(n) {
		st.metrics.Throttled.Add(1)
		return errThrottled("tenant %q exceeded %g observations/s (burst %d); retry later",
			tenant, st.opts.TenantEvalsPerSec, st.opts.TenantBurst)
	}
	ts.tokens -= float64(n)
	return nil
}

func (st *Store) tenant(name string) *tenantState {
	ts, ok := st.tenants[name]
	if !ok {
		ts = &tenantState{tokens: float64(st.opts.TenantBurst), last: st.opts.Now()}
		st.tenants[name] = ts
	}
	return ts
}
