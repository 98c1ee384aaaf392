package tuners

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/conf"
	"repro/internal/journal"
)

func sessionMeta() journal.Meta {
	return journal.Meta{Seed: 9, Budget: 12, Tuner: "RandomSearch"}
}

// countedFlaky wraps flakyObjective with a live-call counter so tests
// can assert replay never touches the objective.
func countedFlaky(failFirst int, live *int) *FuncObjective {
	inner := flakyObjective(failFirst)
	orig := inner.FnOutcome
	inner.FnOutcome = func(c conf.Config) (float64, bool, bool) {
		*live++
		return orig(c)
	}
	return inner
}

// TestSessionJournalReplaySubstitutes: a resumed session must serve
// the journaled records without touching the objective, restore the
// stream position and failure ledger, and report the same result.
func TestSessionJournalReplaySubstitutes(t *testing.T) {
	sp := smallSpace(t)
	path := filepath.Join(t.TempDir(), "s.jnl")

	jn, err := journal.Open(path, sessionMeta(), journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	jn.SetPhase("bo")
	full := RandomSearch{}.Run(NewSession(flakyObjective(1), sp, Request{
		Budget: 12, Seed: 9, Retry: RetryPolicy{MaxRetries: 2}, Journal: jn,
	}))
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}
	if !full.Found {
		t.Fatal("baseline session found nothing")
	}
	if full.Failures.Retries == 0 {
		t.Fatal("flaky objective produced no retries; test is not exercising the stream restore")
	}

	jn2, err := journal.Open(path, sessionMeta(), journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if jn2.ReplayPending() != 12 {
		t.Fatalf("replay pending %d, want 12", jn2.ReplayPending())
	}
	jn2.SetPhase("bo")
	live := 0
	obj := countedFlaky(1, &live)
	res := RandomSearch{}.Run(NewSession(obj, sp, Request{
		Budget: 12, Seed: 9, Retry: RetryPolicy{MaxRetries: 2}, Journal: jn2,
	}))
	if reason := jn2.Diverged(); reason != "" {
		t.Fatalf("replay diverged: %s", reason)
	}
	jn2.Close()

	if live != 0 {
		t.Fatalf("full replay made %d live objective calls", live)
	}
	if res.BestSeconds != full.BestSeconds || res.Evals != full.Evals || res.SearchCost != full.SearchCost {
		t.Fatalf("resumed result %v/%d/%v, want %v/%d/%v",
			res.BestSeconds, res.Evals, res.SearchCost, full.BestSeconds, full.Evals, full.SearchCost)
	}
	if res.Failures != full.Failures {
		t.Fatalf("failure ledger %+v, want %+v", res.Failures, full.Failures)
	}
	if len(res.Trace) != len(full.Trace) {
		t.Fatalf("trace length %d, want %d", len(res.Trace), len(full.Trace))
	}
	for i := range full.Trace {
		if res.Trace[i] != full.Trace[i] {
			t.Fatalf("trace[%d] = %v, want %v", i, res.Trace[i], full.Trace[i])
		}
	}
	// The objective's stream position was restored even though it was
	// never called.
	if obj.Evals() != full.Evals {
		t.Fatalf("restored stream position %d, want %d", obj.Evals(), full.Evals)
	}
}

// TestSessionReplayDivergenceContinuesLive: a decision path that no
// longer matches the journal (here: a different tuner seed the meta
// cannot catch) must truncate the stale tail and finish the campaign
// live — never replay wrong records, never fail the session.
func TestSessionReplayDivergenceContinuesLive(t *testing.T) {
	sp := smallSpace(t)
	path := filepath.Join(t.TempDir(), "d.jnl")
	jn, err := journal.Open(path, sessionMeta(), journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	jn.SetPhase("bo")
	RandomSearch{}.Run(NewSession(flakyObjective(0), sp, Request{Budget: 8, Seed: 9, Journal: jn}))
	jn.Close()

	jn2, err := journal.Open(path, sessionMeta(), journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	jn2.SetPhase("bo")
	live := 0
	res := RandomSearch{}.Run(NewSession(countedFlaky(0, &live), sp, Request{
		Budget: 8, Seed: 10, Journal: jn2, // different sampling sequence
	}))
	if jn2.Diverged() == "" {
		t.Fatal("mismatched decision path replayed without detection")
	}
	jn2.Close()
	if !res.Found {
		t.Fatal("diverged session did not finish")
	}
	if live != 8 {
		t.Fatalf("diverged session made %d live calls, want the full 8", live)
	}

	// The stale tail is gone: the journal now holds exactly the live
	// session's records and resumes cleanly at the new seed.
	jn3, err := journal.Open(path, sessionMeta(), journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if jn3.ReplayPending() != 8 {
		t.Fatalf("post-divergence journal replays %d records, want 8", jn3.ReplayPending())
	}
	jn3.SetPhase("bo")
	live2 := 0
	res2 := RandomSearch{}.Run(NewSession(countedFlaky(0, &live2), sp, Request{
		Budget: 8, Seed: 10, Journal: jn3,
	}))
	if reason := jn3.Diverged(); reason != "" {
		t.Fatalf("clean resume diverged: %s", reason)
	}
	jn3.Close()
	if live2 != 0 || res2.BestSeconds != res.BestSeconds {
		t.Fatalf("post-divergence resume: live=%d best=%v, want 0/%v", live2, res2.BestSeconds, res.BestSeconds)
	}
}

// TestSessionIgnoresDoneWithoutMeta: a journal file holding a done
// record but no meta record before it (the header append was torn) is
// started fresh, so the session spends its whole budget instead of
// sealing at once from the orphan record.
func TestSessionIgnoresDoneWithoutMeta(t *testing.T) {
	sp := smallSpace(t)
	path := filepath.Join(t.TempDir(), "o.jnl")
	jn, err := journal.Open(path, sessionMeta(), journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.AppendDone(journal.DoneEntry{Found: true, BestSeconds: 50, Evals: 5}); err != nil {
		t.Fatal(err)
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Keep the 8-byte magic and the done frame; cut the meta frame
	// between them (u32 length, u32 CRC, payload).
	metaEnd := 16 + int(binary.LittleEndian.Uint32(data[8:12]))
	if err := os.WriteFile(path, append(data[:8:8], data[metaEnd:]...), 0o644); err != nil {
		t.Fatal(err)
	}

	jn2, err := journal.Open(path, sessionMeta(), journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	jn2.SetPhase("bo")
	live := 0
	res := RandomSearch{}.Run(NewSession(countedFlaky(0, &live), sp, Request{Budget: 12, Seed: 9, Journal: jn2}))
	if err := jn2.Close(); err != nil {
		t.Fatal(err)
	}
	if live != 12 || res.Evals != 12 || len(res.Trace) != 12 {
		t.Fatalf("session made %d live calls, %d evals, %d trace points; want its whole budget of 12", live, res.Evals, len(res.Trace))
	}
}
