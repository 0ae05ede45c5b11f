package adept2_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"adept2"
	"adept2/internal/history"
	"adept2/internal/sim"
)

// testClock is an injectable logical clock: time only moves when a test
// advances it, so every deadline and backoff assertion is exact.
type testClock struct{ t time.Time }

func newTestClock() *testClock {
	return &testClock{t: time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *testClock) Now() time.Time              { return c.t }
func (c *testClock) advance(d time.Duration)     { c.t = c.t.Add(d) }
func (c *testClock) after(d time.Duration) int64 { return c.t.Add(d).UnixNano() }

// repairSchema is the three-step process the exception tests run:
//
//	start → triage(clerk) → fix(clerk, deadline 2m, escalates to sales) → wrap(clerk) → end
func repairSchema(t *testing.T) *adept2.Schema {
	t.Helper()
	b := adept2.NewBuilder("repair")
	triage := b.Activity("triage", "Triage", adept2.WithRole("clerk"))
	fix := b.Activity("fix", "Fix", adept2.WithRole("clerk"),
		adept2.WithDeadline(2*time.Minute), adept2.WithEscalation("sales"))
	wrap := b.Activity("wrap", "Wrap", adept2.WithRole("clerk"))
	s, err := b.Build(b.Seq(triage, fix, wrap))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func openRepair(t *testing.T, path string, clk *testClock, policy adept2.ExceptionPolicy) *adept2.System {
	t.Helper()
	opts := []adept2.Option{
		adept2.WithOrg(sim.Org()),
		adept2.WithClock(clk.Now),
		adept2.WithCheckpointing(adept2.CheckpointConfig{Every: -1}),
	}
	if policy != nil {
		opts = append(opts, adept2.WithExceptionPolicy(policy))
	}
	sys, err := adept2.Open(path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// startFix deploys the schema, creates an instance, and brings it to
// "fix running under ann". Returns the instance ID.
func startFix(t *testing.T, sys *adept2.System) string {
	t.Helper()
	if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: repairSchema(t)}); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Submit(context.Background(), &adept2.CreateInstance{TypeName: "repair"})
	if err != nil {
		t.Fatal(err)
	}
	inst := res.(*adept2.Instance)
	if _, err := sys.Submit(context.Background(), &adept2.CompleteActivity{Instance: inst.ID(), Node: "triage", User: "ann"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Submit(context.Background(), &adept2.StartActivity{Instance: inst.ID(), Node: "fix", User: "ann"}); err != nil {
		t.Fatal(err)
	}
	return inst.ID()
}

func hasItem(sys *adept2.System, user, inst, node string) bool {
	for _, it := range sys.WorkItems(user) {
		if it.Instance == inst && it.Node == node {
			return true
		}
	}
	return false
}

func countEvents(inst *adept2.Instance, kind history.Kind) int {
	n := 0
	for _, e := range inst.HistoryEvents() {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// TestFailRetryBackoffLifecycle walks the full retry compensation loop:
// Fail suppresses the re-offer for the policy's backoff (stamped from
// the injected clock onto the journaled record), an early sweep leaves
// it suppressed, the on-time sweep lifts it, the backoff doubles on the
// next failure, and a successful completion clears the failure counter.
func TestFailRetryBackoffLifecycle(t *testing.T) {
	ctx := context.Background()
	clk := newTestClock()
	sys := openRepair(t, filepath.Join(t.TempDir(), "wal"), clk,
		adept2.RetryThenSuspend(3, time.Minute))
	defer sys.Close()
	id := startFix(t, sys)
	inst, _ := sys.Instance(id)

	if err := sys.Fail(ctx, id, "fix", "ann", "printer on fire"); err != nil {
		t.Fatal(err)
	}
	if got := inst.FailureCount("fix"); got != 1 {
		t.Fatalf("failure count after first fail: %d", got)
	}
	if _, armed := inst.Deadline("fix"); armed {
		t.Fatal("failing the activity must disarm its deadline")
	}
	due, ok := inst.RetryDue("fix")
	if !ok || due != clk.after(time.Minute) {
		t.Fatalf("retry due %d (%v), want %d", due, ok, clk.after(time.Minute))
	}
	if hasItem(sys, "ann", id, "fix") || hasItem(sys, "cyn", id, "fix") {
		t.Fatal("failed activity re-offered during its backoff window")
	}

	// A sweep before the backoff elapses must not lift the suppression.
	clk.advance(30 * time.Second)
	rep, err := sys.SweepDeadlines(ctx, clk.Now())
	if err != nil || rep.Retries != 0 {
		t.Fatalf("early sweep: %v, retries %d", err, rep.Retries)
	}
	if hasItem(sys, "ann", id, "fix") {
		t.Fatal("early sweep re-offered a suppressed item")
	}

	// Past the backoff, the sweep re-offers the work item.
	clk.advance(31 * time.Second)
	rep, err = sys.SweepDeadlines(ctx, clk.Now())
	if err != nil || rep.Retries != 1 {
		t.Fatalf("due sweep: %v, retries %d", err, rep.Retries)
	}
	if !hasItem(sys, "ann", id, "fix") {
		t.Fatal("due sweep did not re-offer the failed activity")
	}

	// The second failure doubles the backoff.
	if _, err := sys.Submit(ctx, &adept2.StartActivity{Instance: id, Node: "fix", User: "ann"}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Fail(ctx, id, "fix", "ann", "printer still on fire"); err != nil {
		t.Fatal(err)
	}
	if got := inst.FailureCount("fix"); got != 2 {
		t.Fatalf("failure count after second fail: %d", got)
	}
	if due, _ := inst.RetryDue("fix"); due != clk.after(2*time.Minute) {
		t.Fatalf("second backoff %d, want doubled %d", due, clk.after(2*time.Minute))
	}

	clk.advance(2*time.Minute + time.Second)
	if rep, err = sys.SweepDeadlines(ctx, clk.Now()); err != nil || rep.Retries != 1 {
		t.Fatalf("second due sweep: %v, retries %d", err, rep.Retries)
	}
	if _, err := sys.Submit(ctx, &adept2.StartActivity{Instance: id, Node: "fix", User: "cyn"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Submit(ctx, &adept2.CompleteActivity{Instance: id, Node: "fix", User: "cyn"}); err != nil {
		t.Fatal(err)
	}
	if got := inst.FailureCount("fix"); got != 0 {
		t.Fatalf("completion must clear the failure count, got %d", got)
	}
	if got := countEvents(inst, history.Failed); got != 2 {
		t.Fatalf("physical history records %d Failed events, want 2", got)
	}
	if _, err := sys.Submit(ctx, &adept2.CompleteActivity{Instance: id, Node: "wrap", User: "ann"}); err != nil {
		t.Fatal(err)
	}
	if !inst.Done() {
		t.Fatal("instance did not finish after the retry loop")
	}
}

// TestFailSkipCompensation: an ActionSkip policy compensates a failure
// by deleting the activity through a machine-generated ad-hoc change —
// the node leaves the instance view and the successor activates.
func TestFailSkipCompensation(t *testing.T) {
	ctx := context.Background()
	clk := newTestClock()
	skip := adept2.PolicyFunc(func(adept2.Exception) adept2.Reaction {
		return adept2.Reaction{Action: adept2.ActionSkip}
	})
	sys := openRepair(t, filepath.Join(t.TempDir(), "wal"), clk, skip)
	defer sys.Close()
	id := startFix(t, sys)
	inst, _ := sys.Instance(id)

	if err := sys.Fail(ctx, id, "fix", "ann", "unfixable"); err != nil {
		t.Fatal(err)
	}
	if _, still := inst.View().Node("fix"); still {
		t.Fatal("skip compensation left the failed node in the view")
	}
	if !inst.Biased() {
		t.Fatal("the machine-generated skip must register as an instance bias")
	}
	if !hasItem(sys, "ann", id, "wrap") {
		t.Fatal("successor not offered after the skip")
	}
	if _, err := sys.Submit(ctx, &adept2.CompleteActivity{Instance: id, Node: "wrap", User: "ann"}); err != nil {
		t.Fatal(err)
	}
	if !inst.Done() {
		t.Fatal("instance did not finish after the skip")
	}
}

// TestFailSuspendThenAdminRecovers: an ActionSuspend policy freezes the
// instance for human intervention; the administrator resumes it,
// releases the pending compensation via RetryActivity, and the process
// runs to completion.
func TestFailSuspendThenAdminRecovers(t *testing.T) {
	ctx := context.Background()
	clk := newTestClock()
	susp := adept2.PolicyFunc(func(adept2.Exception) adept2.Reaction {
		return adept2.Reaction{Action: adept2.ActionSuspend}
	})
	sys := openRepair(t, filepath.Join(t.TempDir(), "wal"), clk, susp)
	defer sys.Close()
	id := startFix(t, sys)
	inst, _ := sys.Instance(id)

	if err := sys.Fail(ctx, id, "fix", "ann", "needs a human"); err != nil {
		t.Fatal(err)
	}
	if !inst.Suspended() {
		t.Fatal("suspend compensation did not suspend the instance")
	}
	if !inst.PendingCompensation("fix") {
		t.Fatal("failed node not marked pending compensation")
	}
	if hasItem(sys, "ann", id, "fix") {
		t.Fatal("suppressed item offered while suspended")
	}

	if _, err := sys.Submit(ctx, &adept2.Resume{Instance: id}); err != nil {
		t.Fatal(err)
	}
	// Resuming alone does not lift the suppression: the pending mark
	// survives until an explicit retry releases it.
	if x := sys.OpenExceptions(); len(x) != 1 || x[0].Node != "fix" {
		t.Fatalf("open exceptions after resume: %+v", x)
	}
	if _, err := sys.Submit(ctx, &adept2.RetryActivity{Instance: id, Node: "fix"}); err != nil {
		t.Fatal(err)
	}
	if inst.PendingCompensation("fix") {
		t.Fatal("retry did not clear the pending compensation")
	}
	if !hasItem(sys, "ann", id, "fix") {
		t.Fatal("item not re-offered after the admin retry")
	}
	for _, step := range []string{"fix", "wrap"} {
		if _, err := sys.Submit(ctx, &adept2.CompleteActivity{Instance: id, Node: step, User: "ann"}); err != nil {
			t.Fatal(err)
		}
	}
	if !inst.Done() {
		t.Fatal("instance did not finish after admin recovery")
	}
}

// TestDeadlineEscalationSurvivesRecovery is the satellite-3 acceptance
// test: an armed deadline survives a snapshot+recovery round-trip, the
// sweep fires it exactly once (Timeout event + escalation to the
// configured role), and after a second recovery — replaying the fired
// timeout from the journal suffix — it never fires again.
func TestDeadlineEscalationSurvivesRecovery(t *testing.T) {
	ctx := context.Background()
	clk := newTestClock()
	path := filepath.Join(t.TempDir(), "wal")
	sys := openRepair(t, path, clk, nil)
	id := startFix(t, sys)
	inst, _ := sys.Instance(id)

	armedUntil := clk.after(2 * time.Minute)
	if dl, ok := inst.Deadline("fix"); !ok || dl != armedUntil {
		t.Fatalf("deadline armed at %d (%v), want %d", dl, ok, armedUntil)
	}

	// Snapshot round-trip: the armed deadline must come back from the
	// checkpoint, not the clock.
	if _, _, err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	clk.advance(10 * time.Second) // recovery never reads the clock
	sys = openRepair(t, path, clk, nil)
	if info := sys.Recovery(); info.FullReplay || info.SnapshotSeq == 0 {
		t.Fatalf("recovery bypassed the snapshot: %+v", info)
	}
	inst, _ = sys.Instance(id)
	if dl, ok := inst.Deadline("fix"); !ok || dl != armedUntil {
		t.Fatalf("deadline lost in recovery: %d (%v), want %d", dl, ok, armedUntil)
	}

	// Before expiry: nothing fires.
	rep, err := sys.SweepDeadlines(ctx, clk.Now())
	if err != nil || rep.Timeouts != 0 {
		t.Fatalf("pre-expiry sweep: %v, timeouts %d", err, rep.Timeouts)
	}
	// Past expiry: exactly one Timeout, escalated to sales (dan holds
	// sales but not clerk, so the escalation is visible in his list).
	clk.advance(3 * time.Minute)
	if hasItem(sys, "dan", id, "fix") {
		t.Fatal("non-clerk saw the item before escalation")
	}
	rep, err = sys.SweepDeadlines(ctx, clk.Now())
	if err != nil || rep.Timeouts != 1 {
		t.Fatalf("expiry sweep: %v, timeouts %d", err, rep.Timeouts)
	}
	if !inst.Escalated("fix") {
		t.Fatal("node not marked escalated")
	}
	if !hasItem(sys, "dan", id, "fix") {
		t.Fatal("item not escalated to the sales role")
	}
	if hasItem(sys, "cyn", id, "fix") {
		t.Fatal("escalation must replace the original role: cyn (clerk, not sales) still sees the item")
	}
	if got := countEvents(inst, history.Timeout); got != 1 {
		t.Fatalf("%d Timeout events, want 1", got)
	}
	// Exactly once: a later sweep must not re-fire the spent deadline.
	clk.advance(time.Minute)
	if rep, err = sys.SweepDeadlines(ctx, clk.Now()); err != nil || rep.Timeouts != 0 {
		t.Fatalf("post-fire sweep: %v, timeouts %d", err, rep.Timeouts)
	}

	// Second recovery replays the fired timeout from the journal suffix:
	// still escalated, still exactly one event, still no re-fire.
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	live := sys
	sys = openRepair(t, path, clk, nil)
	defer sys.Close()
	assertSameState(t, live, sys) // escalation, one Timeout, no deadline, dan's item
	inst, _ = sys.Instance(id)
	clk.advance(time.Hour)
	if rep, err := sys.SweepDeadlines(ctx, clk.Now()); err != nil || rep.Timeouts != 0 {
		t.Fatalf("sweep after replay double-fired: %v, timeouts %d", err, rep.Timeouts)
	}
	// The escalation assignee finishes the work.
	if _, err := sys.Submit(ctx, &adept2.CompleteActivity{Instance: id, Node: "fix", User: "dan"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Submit(ctx, &adept2.CompleteActivity{Instance: id, Node: "wrap", User: "ann"}); err != nil {
		t.Fatal(err)
	}
	if !inst.Done() {
		t.Fatal("instance did not finish after escalation")
	}
}

// TestRetryBackoffSurvivesRecovery: a pending retry backoff — stamped
// onto the journaled fail record from the injected clock — re-arms
// deterministically on recovery and the sweep lifts it exactly once.
func TestRetryBackoffSurvivesRecovery(t *testing.T) {
	ctx := context.Background()
	clk := newTestClock()
	path := filepath.Join(t.TempDir(), "wal")
	policy := adept2.RetryThenSuspend(3, time.Minute)
	sys := openRepair(t, path, clk, policy)
	id := startFix(t, sys)

	if err := sys.Fail(ctx, id, "fix", "ann", "transient"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	live := sys
	sys = openRepair(t, path, clk, policy)
	defer sys.Close()
	assertSameState(t, live, sys) // the retry stamp, and no item during the backoff
	clk.advance(2 * time.Minute)
	rep, err := sys.SweepDeadlines(ctx, clk.Now())
	if err != nil || rep.Retries != 1 {
		t.Fatalf("sweep after recovery: %v, retries %d", err, rep.Retries)
	}
	if rep, err = sys.SweepDeadlines(ctx, clk.Now()); err != nil || rep.Retries != 0 {
		t.Fatalf("second sweep re-lifted: %v, retries %d", err, rep.Retries)
	}
	if !hasItem(sys, "ann", id, "fix") {
		t.Fatal("item not re-offered after recovered backoff elapsed")
	}
}

// TestFailErrorTaxonomy pins the exception error surface: failing a
// node that is not running is a typed conflict, and the Exception
// presented to the policy carries an ErrFailed-tagged error.
func TestFailErrorTaxonomy(t *testing.T) {
	ctx := context.Background()
	clk := newTestClock()
	var seen []adept2.Exception
	rec := adept2.PolicyFunc(func(x adept2.Exception) adept2.Reaction {
		seen = append(seen, x)
		return adept2.Reaction{Action: adept2.ActionNone}
	})
	sys := openRepair(t, filepath.Join(t.TempDir(), "wal"), clk, rec)
	defer sys.Close()
	id := startFix(t, sys)

	if err := sys.Fail(ctx, id, "wrap", "ann", "not even running"); !errors.Is(err, adept2.ErrConflict) {
		t.Fatalf("failing a non-running node: %v, want conflict", err)
	}
	if err := sys.Fail(ctx, id, "fix", "ann", "boom"); err != nil {
		t.Fatal(err)
	}
	// The rejected Fail consulted the policy too (decide-before-submit),
	// so two exceptions were presented; only the second was journaled.
	if len(seen) != 2 {
		t.Fatalf("policy consulted %d times, want 2", len(seen))
	}
	x := seen[1]
	if x.Kind != adept2.ActivityFailed || x.Node != "fix" || x.Failures != 1 {
		t.Fatalf("exception presented to policy: %+v", x)
	}
	if x.Err == nil || fmt.Sprint(x.Err) == "" {
		t.Fatal("exception lacks its taxonomy error")
	}
}
