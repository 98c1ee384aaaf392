package server_test

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/client"
	"repro/internal/server"
)

// The wire-level kill/resume harness: the test binary re-executes
// itself as a robotuned server child, the parent drives a campaign
// against it over real TCP, SIGKILLs the child at escalating depths,
// restarts it on the same journal directory, reattaches, and keeps
// driving. The completed history must be bit-identical to an
// uninterrupted run of the same spec. Gated like the in-process
// crash-stress suite so tier-1 `go test ./...` stays fast; `make
// crash-stress` (and the CI server job) enable it.
const (
	wireStressEnv = "ROBOTUNE_CRASH_STRESS"
	wireChildEnv  = "ROBOTUNED_CHILD"
	wireDirEnv    = "ROBOTUNED_DIR"
)

// wireSpec is the campaign both the baseline and the stressed run use:
// the real ROBOTune pipeline (probe, selection, BO) with small models,
// so kills land in every phase while a full run stays fast.
func wireSpec() client.SessionSpec {
	sp := spec("robotune", 60, 1234)
	sp.Options.GenericSamples = 24
	sp.Options.TuningSamples = 12
	sp.Workload = "wire-stress"
	sp.Dataset = "D1"
	return sp
}

// TestRobotunedChild is the subprocess body, not a standalone test: it
// serves robotuned on a random port against the journal dir from the
// environment and blocks until the parent kills it.
func TestRobotunedChild(t *testing.T) {
	if os.Getenv(wireChildEnv) != "1" {
		t.Skip("robotuned child body; run via TestWireKillResume")
	}
	srv := server.New(server.Options{JournalDir: os.Getenv(wireDirEnv)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The parent parses this exact line for the port.
	fmt.Printf("CHILD_ADDR http://%s\n", ln.Addr())
	os.Stdout.Sync()
	t.Fatal(http.Serve(ln, srv.Handler())) // only SIGKILL ends this
}

// isNetErr reports an error that means "the server died mid-request",
// as opposed to an API-level rejection (which is an *APIError).
func isNetErr(err error) bool {
	var ae *client.APIError
	return err != nil && !errors.As(err, &ae)
}

// stressRig owns the child process and the session handle, and knows
// how to restart and reattach after a kill.
type stressRig struct {
	t     *testing.T
	dir   string
	id    string
	cmd   *exec.Cmd
	cl    *client.Client
	sess  *client.Session
	kills int
	delay time.Duration
}

func (r *stressRig) startChild() {
	t := r.t
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestRobotunedChild$", "-test.v")
	cmd.Env = append(os.Environ(), wireChildEnv+"=1", wireDirEnv+"="+r.dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "CHILD_ADDR "); ok {
			// Drain the rest of the child's output so it never blocks on
			// a full pipe.
			go func() {
				for sc.Scan() {
				}
			}()
			r.cmd = cmd
			r.cl.BaseURL = addr
			return
		}
	}
	_ = cmd.Process.Kill()
	t.Fatal("child exited without printing CHILD_ADDR")
}

func (r *stressRig) killChild() {
	if r.cmd != nil && r.cmd.Process != nil {
		_ = r.cmd.Process.Signal(syscall.SIGKILL)
		_, _ = r.cmd.Process.Wait()
	}
}

// recover kills whatever is left of the child, restarts it on the
// same journal directory and reattaches the session.
func (r *stressRig) recover() {
	t := r.t
	t.Helper()
	r.killChild()
	r.kills++
	r.delay += 10 * time.Millisecond
	r.startChild()
	for attempt := 0; ; attempt++ {
		sess, err := r.cl.Attach(r.id)
		if err == nil {
			r.sess = sess
			return
		}
		if attempt > 50 {
			t.Fatalf("reattach after restart: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWireKillResume: drive a campaign against a robotuned child,
// SIGKILL it at escalating depths, restart on the same journal dir,
// reattach, continue. The stitched history must match an
// uninterrupted baseline bit-for-bit. The campaign runs twice, once as
// a Propose(0) loop and once as a Propose(1) loop; the client
// pipelines both, so kills also land between a proposal an observe
// answer carried and that proposal's observation.
func TestWireKillResume(t *testing.T) {
	if os.Getenv(wireStressEnv) == "" {
		t.Skip("set " + wireStressEnv + "=1 (or run `make crash-stress`) to enable")
	}

	// Uninterrupted baseline, in-process.
	base := newEnv(t, server.Options{JournalDir: t.TempDir()})
	bs, err := base.cl.Create(wireSpec())
	if err != nil {
		t.Fatal(err)
	}
	drive(t, bs)
	baseSt, err := bs.FullStatus()
	if err != nil {
		t.Fatal(err)
	}
	if !baseSt.Found {
		t.Fatal("baseline found nothing")
	}
	for _, n := range []int{0, 1} {
		t.Run(fmt.Sprintf("propose%d", n), func(t *testing.T) { stressCampaign(t, n, baseSt) })
	}
}

// stressCampaign drives the stressed run in a closed Propose(n) loop
// and checks it against the baseline's status.
func stressCampaign(t *testing.T, n int, baseSt client.StatusResponse) {
	// Stressed run: a real child process, killed and restarted. The
	// parent kills synchronously at a per-round deadline rather than
	// from a timer goroutine, so every kill lands between two requests
	// of a known round — the depth still walks through the whole
	// campaign as the delay escalates.
	rig := &stressRig{t: t, dir: t.TempDir(), cl: client.New(""), delay: 10 * time.Millisecond}
	rig.startChild()
	defer rig.killChild()
	sess, err := rig.cl.Create(wireSpec())
	if err != nil {
		t.Fatal(err)
	}
	rig.id, rig.sess = sess.ID, sess

	complete := false
	roundStart := time.Now()
	for round := 0; !complete; round++ {
		if round > 5000 {
			t.Fatal("campaign did not complete within 5000 rounds")
		}
		// The kill: once this round has run past the current depth, the
		// child dies mid-conversation and the next request hits a dead
		// server.
		if time.Since(roundStart) > rig.delay {
			rig.killChild()
			roundStart = time.Now()
		}
		props, done, err := rig.sess.Propose(n)
		if err != nil {
			if !isNetErr(err) {
				t.Fatalf("propose: %v", err)
			}
			rig.recover()
			roundStart = time.Now()
			continue
		}
		if len(props) == 0 && done {
			complete = true
			break
		}
		for _, p := range props {
			sec, ok := objective(p.Config)
			for {
				_, oerr := rig.sess.Observe(client.Observation{Config: p.Config, Seconds: sec, Completed: ok})
				if oerr == nil {
					break
				}
				if client.IsConflict(oerr) {
					// The observation was journaled before a crash but the
					// response never reached us; the server already has it.
					break
				}
				if !isNetErr(oerr) {
					t.Fatalf("observe: %v", oerr)
				}
				rig.recover()
				roundStart = time.Now()
			}
		}
	}
	t.Logf("campaign completed after %d SIGKILLs", rig.kills)
	if rig.kills == 0 {
		t.Log("no kill landed mid-campaign; widen the campaign or shrink the first delay")
	}

	st, err := rig.sess.FullStatus()
	if err != nil {
		t.Fatal(err)
	}
	if st.Diverged != "" {
		t.Fatalf("stitched journal diverged: %s", st.Diverged)
	}
	if len(st.Trace) != len(baseSt.Trace) {
		t.Fatalf("trace lengths: stressed %d vs baseline %d", len(st.Trace), len(baseSt.Trace))
	}
	for i := range st.Trace {
		if st.Trace[i] != baseSt.Trace[i] {
			t.Fatalf("trace[%d]: stressed %x vs baseline %x", i, st.Trace[i], baseSt.Trace[i])
		}
	}
	if st.BestSeconds != baseSt.BestSeconds || st.Evals != baseSt.Evals {
		t.Fatalf("result drifted: best %x evals %d vs baseline best %x evals %d",
			st.BestSeconds, st.Evals, baseSt.BestSeconds, baseSt.Evals)
	}

	res, err := rig.sess.Finish()
	if err != nil {
		t.Fatalf("finish after stitched campaign: %v", err)
	}
	if !res.Found || res.BestSeconds != baseSt.BestSeconds {
		t.Fatalf("final result: %+v, want best %v", res, baseSt.BestSeconds)
	}
}
