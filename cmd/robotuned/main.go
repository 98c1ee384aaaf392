// Command robotuned serves tuning sessions over HTTP: a long-running
// daemon hosting many concurrent journal-backed ask/tell sessions.
// Clients create a session from a JSON spec, pull configuration
// proposals, evaluate them on whatever system they are tuning, and
// report the outcomes back; every observation is committed to the
// session's journal before the tuner acts on it.
//
// Usage:
//
//	robotuned -addr 127.0.0.1:7077 -journal-dir /var/lib/robotuned
//	robotuned -addr 127.0.0.1:0                  # ephemeral, random port
//	robotuned -tenant-sessions 8 -tenant-evals-per-sec 200
//
// The daemon prints "robotuned listening on http://HOST:PORT" once the
// listener is up (scripts parse this line when using port 0). SIGINT
// or SIGTERM starts a graceful drain bounded by -drain-timeout: new
// sessions are rejected with 503 "draining" and /healthz flips to 503
// (so load balancers stop routing here) while live sessions keep
// serving; once in-flight traffic settles, every live session's
// journal is fsynced and closed, and the process exits 0. Restarting
// on the same -journal-dir resumes every session bit-identically; see
// docs/SERVICE.md for the API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	_ "repro/internal/backend/backends"
	"repro/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7077", "listen address (port 0 picks a free port)")
		journalDir  = flag.String("journal-dir", "", "directory for session specs and journals; empty = ephemeral sessions (no durability, no eviction)")
		shards      = flag.Int("shards", 16, "session table stripe count")
		maxSessions = flag.Int("max-sessions", 0, "global live-session cap (0 = unlimited)")
		tenantSess  = flag.Int("tenant-sessions", 0, "live-session cap per tenant (0 = unlimited)")
		maxObs      = flag.Int("max-observations", 0, "per-session cap on evaluated observations; past it observations answer 409 max_observations (0 = unlimited)")
		tenantRate  = flag.Float64("tenant-evals-per-sec", 0, "observation rate limit per tenant (0 = unlimited)")
		tenantBurst = flag.Int("tenant-burst", 0, "observation token-bucket depth (0 = 2x rate, floor one max batch)")
		idleTTL     = flag.Duration("idle-ttl", 15*time.Minute, "evict sessions untouched this long (journal-backed only; 0 = never)")
		evictEvery  = flag.Duration("evict-every", 0, "eviction janitor period (0 = idle-ttl/4)")
		drainWait   = flag.Duration("drain-timeout", 10*time.Second, "graceful-drain bound: how long in-flight session traffic may settle after SIGTERM before shutdown is forced")
		propSlots   = flag.Int("propose-slots", 0, "bound concurrent propose computations (surrogate refit + acquisition search) across sessions; specs with priority \"latency\" overtake queued bulk work (0 = unbounded)")
	)
	flag.Parse()

	srv := server.New(server.Options{
		JournalDir:        *journalDir,
		Shards:            *shards,
		MaxSessions:       *maxSessions,
		TenantSessions:    *tenantSess,
		MaxObservations:   *maxObs,
		TenantEvalsPerSec: *tenantRate,
		TenantBurst:       *tenantBurst,
		IdleTTL:           *idleTTL,
		EvictEvery:        *evictEvery,
		ProposeSlots:      *propSlots,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("robotuned listening on http://%s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go srv.Janitor(ctx)

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain, bounded by -drain-timeout: flip into draining
	// mode first (creates answer 503 "draining", /healthz answers 503
	// so load balancers stop routing here) while live sessions keep
	// serving, wait for in-flight traffic to settle, then stop the
	// listener and fsync + close every session journal.
	fmt.Println("robotuned: draining")
	srv.StartDrain()
	deadline := time.Now().Add(*drainWait)
	for srv.InFlight() > 0 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	drainCtx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, err)
	}
	srv.Shutdown()
	fmt.Println("robotuned: drained; all sessions suspended")
}
