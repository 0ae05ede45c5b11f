package adept2_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adept2"
	"adept2/internal/history"
	"adept2/internal/persist"
	"adept2/internal/sim"
	"adept2/internal/vfs"
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
// a failure withholds the re-offer for the policy's backoff (stamped from
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

	if _, err := sys.Submit(ctx, &adept2.FailActivity{Instance: id, Node: "fix", User: "ann", Reason: "printer on fire"}); err != nil {
		t.Fatal(err)
	}
	if got := inst.ExceptionState("fix").Failures; got != 1 {
		t.Fatalf("failure count after first fail: %d", got)
	}
	if inst.ExceptionState("fix").Armed {
		t.Fatal("failing the activity must disarm its deadline")
	}
	if due := inst.ExceptionState("fix").RetryAt; due != clk.after(time.Minute) {
		t.Fatalf("retry due %d, want %d", due, clk.after(time.Minute))
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
	if _, err := sys.Submit(ctx, &adept2.FailActivity{Instance: id, Node: "fix", User: "ann", Reason: "printer still on fire"}); err != nil {
		t.Fatal(err)
	}
	if got := inst.ExceptionState("fix").Failures; got != 2 {
		t.Fatalf("failure count after second fail: %d", got)
	}
	if due := inst.ExceptionState("fix").RetryAt; due != clk.after(2*time.Minute) {
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
	if got := inst.ExceptionState("fix").Failures; got != 0 {
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
// by deleting the activity through the trial an ad-hoc change runs, in
// the fail command itself — the node leaves the instance view and the
// successor activates.
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

	if _, err := sys.Submit(ctx, &adept2.FailActivity{Instance: id, Node: "fix", User: "ann", Reason: "unfixable"}); err != nil {
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
// instance for human intervention, in the fail command itself; the
// administrator resumes it, releases the withheld work item via
// RetryActivity, and the process runs to completion.
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

	if _, err := sys.Submit(ctx, &adept2.FailActivity{Instance: id, Node: "fix", User: "ann", Reason: "needs a human"}); err != nil {
		t.Fatal(err)
	}
	if !inst.Suspended() {
		t.Fatal("suspend compensation did not suspend the instance")
	}
	if !inst.ExceptionState("fix").Pending {
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
	if inst.ExceptionState("fix").Pending {
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
	if x := inst.ExceptionState("fix"); !x.Armed || x.Deadline != armedUntil {
		t.Fatalf("deadline armed at %d (%v), want %d", x.Deadline, x.Armed, armedUntil)
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
	if x := inst.ExceptionState("fix"); !x.Armed || x.Deadline != armedUntil {
		t.Fatalf("deadline lost in recovery: %d (%v), want %d", x.Deadline, x.Armed, armedUntil)
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
	if !inst.ExceptionState("fix").Escalated {
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

	if _, err := sys.Submit(ctx, &adept2.FailActivity{Instance: id, Node: "fix", User: "ann", Reason: "transient"}); err != nil {
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
// node that is not running is a typed conflict that presents nothing to
// the policy, and the Exception presented carries an ErrFailed-tagged
// error.
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

	if _, err := sys.Submit(ctx, &adept2.FailActivity{Instance: id, Node: "wrap", User: "ann", Reason: "not even running"}); !errors.Is(err, adept2.ErrConflict) {
		t.Fatalf("failing a non-running node: %v, want conflict", err)
	}
	if _, err := sys.Submit(ctx, &adept2.FailActivity{Instance: id, Node: "fix", User: "ann", Reason: "boom"}); err != nil {
		t.Fatal(err)
	}
	// The policy decides inside the command, once the failure is
	// recorded: the refused one presented nothing.
	if len(seen) != 1 {
		t.Fatalf("policy consulted %d times, want 1", len(seen))
	}
	x := seen[0]
	if x.Kind != adept2.ActivityFailed || x.Node != "fix" || x.Failures != 1 {
		t.Fatalf("exception presented to policy: %+v", x)
	}
	if x.Err == nil || fmt.Sprint(x.Err) == "" {
		t.Fatal("exception lacks its taxonomy error")
	}
}

// TestRetryThenSuspendBackoffSaturates: the doubled backoff stops at the
// largest Duration instead of wrapping negative (with a 1 s base it
// wrapped at the 35th failure and re-offered at once), and the retry time
// a failure stamps stops at the largest time instead of wrapping past
// now + backoff. Every row fails its failure count through the System.
func TestRetryThenSuspendBackoffSaturates(t *testing.T) {
	ctx := context.Background()
	policy := adept2.RetryThenSuspend(100, time.Second)
	for _, row := range []struct {
		failures int
		want     time.Duration
	}{
		{33, 1 << 32 * time.Second},
		{34, 1 << 33 * time.Second}, // positive, but now + it wraps
		{35, math.MaxInt64},
		{36, math.MaxInt64},
		{63, math.MaxInt64},
	} {
		x := adept2.Exception{Kind: adept2.ActivityFailed, Failures: row.failures}
		if got := policy.Decide(x); got.Action != adept2.ActionRetry || got.Backoff != row.want {
			t.Errorf("failure %d: %v after %d, want retry after %d", row.failures, got.Action, got.Backoff, row.want)
		}
		clk := newTestClock()
		sys := adept2.New(adept2.WithOrg(sim.Org()), adept2.WithClock(clk.Now), adept2.WithExceptionPolicy(policy))
		id := startFix(t, sys)
		for i := 1; i <= row.failures; i++ {
			if i > 1 {
				if _, err := sys.Submit(ctx, &adept2.StartActivity{Instance: id, Node: "fix", User: "ann"}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := sys.Submit(ctx, &adept2.FailActivity{Instance: id, Node: "fix", User: "ann"}); err != nil {
				t.Fatal(err)
			}
		}
		inst, _ := sys.Instance(id)
		want := int64(math.MaxInt64)
		if now := clk.after(0); int64(row.want) < math.MaxInt64-now {
			want = now + int64(row.want)
		}
		if due := inst.ExceptionState("fix").RetryAt; due != want {
			t.Errorf("failure %d: retry due at %d, want %d", row.failures, due, want)
		}
		clk.advance(time.Hour)
		if rep, err := sys.SweepDeadlines(ctx, clk.Now()); err != nil || rep.Retries != 0 || hasItem(sys, "ann", id, "fix") {
			t.Errorf("failure %d: a sweep an hour later re-offered it: %+v, %v", row.failures, rep, err)
		}
		sys.Close()
	}
}

// The parent-journal fixture. testdata/parent_exceptions.ndjson was
// written at commit 3bf0fc4, where System.Fail journaled a skip or a
// suspend as a second command after the fail record: exceptionScenario
// ran with that System.Fail as fail, and then a FailActivity with Pending
// set, and no follow-up, was submitted for e6-window — the state a crash
// between a fail record and its compensation left.
// parent_exceptions.reacted.summary is that tree's sim.Summary before the
// last record, parent_exceptions.summary after it.

// fixturePolicy reacts by instance: e1 retries after a minute, e2 and e3
// skip (e3's skip is not compliant and suspends), e4 and e5 — a deadline
// expiry — suspend.
var fixturePolicy = adept2.PolicyFunc(func(x adept2.Exception) adept2.Reaction {
	switch x.Instance {
	case "e1-retry":
		return adept2.Reaction{Action: adept2.ActionRetry, Backoff: time.Minute}
	case "e2-skip", "e3-degrade":
		return adept2.Reaction{Action: adept2.ActionSkip}
	case "e4-suspend", "e5-timeout":
		return adept2.Reaction{Action: adept2.ActionSuspend}
	}
	return adept2.Reaction{Action: adept2.ActionNone}
})

// relaySchema is a → b, b reading mandatorily what a writes: deleting a
// leaves b's read without a writer, which no change may do.
func relaySchema(t *testing.T) *adept2.Schema {
	t.Helper()
	b := adept2.NewBuilder("relay")
	b.DataElement("doc", adept2.TypeString)
	a := b.Activity("a", "A", adept2.WithRole("clerk"))
	c := b.Activity("b", "B", adept2.WithRole("clerk"))
	b.Write("a", "doc", "doc")
	b.Read("b", "doc", "doc", true)
	s, err := b.Build(b.Seq(a, c))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// exceptionScenario fails e1–e4 under fixturePolicy through fail, lets a
// sweep three minutes later fire e5's deadline and lift e1's backoff, and
// starts e6's fix.
func exceptionScenario(t *testing.T, sys *adept2.System, clk *testClock, fail func(id, node string) error) {
	t.Helper()
	ctx := context.Background()
	submit := func(cmd adept2.Command) {
		t.Helper()
		if _, err := sys.Submit(ctx, cmd); err != nil {
			t.Fatalf("%s: %v", cmd.CommandName(), err)
		}
	}
	submit(&adept2.Deploy{Schema: repairSchema(t)})
	submit(&adept2.Deploy{Schema: relaySchema(t)})
	for _, id := range []string{"e1-retry", "e2-skip", "e3-degrade", "e4-suspend", "e5-timeout", "e6-window"} {
		if id == "e3-degrade" {
			submit(&adept2.CreateInstance{TypeName: "relay", ID: id})
			continue
		}
		submit(&adept2.CreateInstance{TypeName: "repair", ID: id})
		submit(&adept2.CompleteActivity{Instance: id, Node: "triage", User: "ann"})
	}
	for _, id := range []string{"e1-retry", "e2-skip", "e4-suspend", "e5-timeout"} {
		submit(&adept2.StartActivity{Instance: id, Node: "fix", User: "ann"})
	}
	submit(&adept2.StartActivity{Instance: "e3-degrade", Node: "a", User: "ann"})
	for _, f := range [][2]string{{"e1-retry", "fix"}, {"e2-skip", "fix"}, {"e3-degrade", "a"}, {"e4-suspend", "fix"}} {
		if err := fail(f[0], f[1]); err != nil {
			t.Fatalf("fail %s/%s: %v", f[0], f[1], err)
		}
	}
	clk.advance(3 * time.Minute)
	if rep, err := sys.SweepDeadlines(ctx, clk.Now()); err != nil || rep.Timeouts != 1 || rep.Retries != 1 {
		t.Fatalf("sweep: %+v, %v", rep, err)
	}
	submit(&adept2.StartActivity{Instance: "e6-window", Node: "fix", User: "ann"})
}

// fixtureRecords reads a journal's records.
func fixtureRecords(t *testing.T, path string) []persist.Record {
	t.Helper()
	recs, _, err := persist.LoadJournalSuffixFS(vfs.OS(), path, 0)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func readGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestParentExceptionJournalRecovers: the parent's journal — each
// reaction, its skip and suspend as separate records, and a pending
// failure whose compensation was never journaled — recovers here to the
// parent's state, and replay asks the policy nothing. The pending failure
// stays what it was: OpenExceptions lists it, a sweep does not present it
// to the policy, and a RetryActivity releases it.
func TestParentExceptionJournalRecovers(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "wal")
	if err := os.WriteFile(path, []byte(readGolden(t, "parent_exceptions.ndjson")), 0o644); err != nil {
		t.Fatal(err)
	}
	asked := 0
	counting := adept2.PolicyFunc(func(x adept2.Exception) adept2.Reaction {
		asked++
		return adept2.Reaction{Action: adept2.ActionSkip}
	})
	clk := newTestClock()
	sys := openRepair(t, path, clk, counting)
	defer sys.Close()
	if d := sim.Diff(readGolden(t, "parent_exceptions.summary"), sim.Summary(sys)); d != "" {
		t.Fatalf("the parent's journal recovers to another state:\n%s", d)
	}
	if asked != 0 {
		t.Fatalf("replay asked the policy %d times", asked)
	}

	window := func() bool {
		x := sys.OpenExceptions()
		return len(x) == 1 && x[0].Instance == "e6-window" && x[0].Node == "fix" && x[0].Kind == adept2.ActivityFailed
	}
	if !window() {
		t.Fatalf("open exceptions %+v, want the pending e6-window/fix alone", sys.OpenExceptions())
	}
	clk.advance(time.Hour)
	if rep, err := sys.SweepDeadlines(ctx, clk.Now()); err != nil || rep.Timeouts+rep.Retries != 0 {
		t.Fatalf("sweep: %+v, %v", rep, err)
	}
	if asked != 0 || !window() || hasItem(sys, "ann", "e6-window", "fix") {
		t.Fatalf("a sweep re-decided the pending failure: policy asked %d times, open %+v", asked, sys.OpenExceptions())
	}
	if _, err := sys.Submit(ctx, &adept2.RetryActivity{Instance: "e6-window", Node: "fix"}); err != nil {
		t.Fatal(err)
	}
	if len(sys.OpenExceptions()) != 0 || !hasItem(sys, "ann", "e6-window", "fix") {
		t.Fatalf("the retry did not release the pending failure: open %+v", sys.OpenExceptions())
	}
}

// TestFailIsOneRecord: the parent's failures, submitted here under the
// same policy, reach the parent's state with one record each: the journal
// is the parent's without its separate adhoc and suspend records, every
// fail and timeout record names the reaction it applied, and it recovers
// to the same state.
func TestFailIsOneRecord(t *testing.T) {
	ctx := context.Background()
	clk := newTestClock()
	path := filepath.Join(t.TempDir(), "wal")
	sys := openRepair(t, path, clk, fixturePolicy)
	exceptionScenario(t, sys, clk, func(id, node string) error {
		_, err := sys.Submit(ctx, &adept2.FailActivity{Instance: id, Node: node, User: "ann", Reason: "failed on " + id})
		return err
	})
	if d := sim.Diff(readGolden(t, "parent_exceptions.reacted.summary"), sim.Summary(sys)); d != "" {
		t.Fatalf("the same failures reach another state here:\n%s", d)
	}
	if got := sys.Metrics().Exception.Compensated; got != 4 {
		t.Errorf("%d skips and suspends counted, want 4", got)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	parent := fixtureRecords(t, filepath.Join("testdata", "parent_exceptions.ndjson"))
	var want []string
	for _, rec := range parent[:len(parent)-1] { // the pending failure is the parent's alone
		if rec.Op != "adhoc" && rec.Op != "suspend" {
			want = append(want, rec.Op)
		}
	}
	var got []string
	reactions := map[string]string{}
	for _, rec := range fixtureRecords(t, path) {
		got = append(got, rec.Op)
		if rec.Op == "fail" || rec.Op == "timeout" {
			var args struct{ Instance, Reaction string }
			if err := json.Unmarshal(rec.Args, &args); err != nil || args.Reaction == "" {
				t.Fatalf("%s record without its reaction: %s (%v)", rec.Op, rec.Args, err)
			}
			reactions[args.Instance] = args.Reaction
		}
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("journal ops\n%v\nwant the parent's without its compensation records\n%v", got, want)
	}
	wantReactions := map[string]string{"e1-retry": "retry", "e2-skip": "skip", "e3-degrade": "suspend", "e4-suspend": "suspend", "e5-timeout": "suspend"}
	if fmt.Sprint(reactions) != fmt.Sprint(wantReactions) {
		t.Fatalf("recorded reactions %v, want %v", reactions, wantReactions)
	}

	re := openRepair(t, path, clk, nil)
	defer re.Close()
	if d := sim.Diff(readGolden(t, "parent_exceptions.reacted.summary"), sim.Summary(re)); d != "" {
		t.Fatalf("the one-record journal recovers to another state:\n%s", d)
	}
}

// TestSweepOrderSurvivesRecovery: a sweep issues the same commands on a
// live system and on its recovery, whatever the instances' IDs. Three
// failed activities under RetryThenSuspend, on instances created as zeta,
// alpha and mid, are lifted by the live system and by a copy of its
// journal reopened in one order; restarted, their deadlines expire in one
// order, and both list the same open exceptions and summarize alike.
func TestSweepOrderSurvivesRecovery(t *testing.T) {
	ctx := context.Background()
	clk := newTestClock()
	dir := t.TempDir()
	path, copied := filepath.Join(dir, "wal"), filepath.Join(dir, "copy")
	policy := adept2.RetryThenSuspend(3, time.Minute)
	sys := openRepair(t, path, clk, policy)
	defer sys.Close()
	ids := []string{"zeta", "alpha", "mid"}
	submit := func(sys *adept2.System, cmd adept2.Command) {
		t.Helper()
		if _, err := sys.Submit(ctx, cmd); err != nil {
			t.Fatalf("%s: %v", cmd.CommandName(), err)
		}
	}
	submit(sys, &adept2.Deploy{Schema: repairSchema(t)})
	for _, id := range ids {
		submit(sys, &adept2.CreateInstance{TypeName: "repair", ID: id})
		submit(sys, &adept2.CompleteActivity{Instance: id, Node: "triage", User: "ann"})
		submit(sys, &adept2.StartActivity{Instance: id, Node: "fix", User: "ann"})
		submit(sys, &adept2.FailActivity{Instance: id, Node: "fix", User: "ann"})
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(copied, b, 0o644); err != nil {
		t.Fatal(err)
	}
	re := openRepair(t, copied, clk, policy)
	defer re.Close()

	// sweep runs one sweep on both systems and compares the records each
	// appended.
	sweep := func(phase string) {
		t.Helper()
		var issued [2]string
		for k, s := range []struct {
			sys  *adept2.System
			path string
		}{{sys, path}, {re, copied}} {
			before := len(fixtureRecords(t, s.path))
			if rep, err := s.sys.SweepDeadlines(ctx, clk.Now()); err != nil || rep.Timeouts+rep.Retries != len(ids) {
				t.Fatalf("%s sweep: %+v, %v", phase, rep, err)
			}
			for _, rec := range fixtureRecords(t, s.path)[before:] {
				issued[k] += rec.Op + " " + string(rec.Args) + "\n"
			}
		}
		if issued[0] != issued[1] {
			t.Errorf("the live %s sweep issued\n%sthe recovered one\n%s", phase, issued[0], issued[1])
		}
	}
	clk.advance(time.Hour)
	sweep("retry")
	for _, s := range []*adept2.System{sys, re} {
		for _, id := range ids {
			submit(s, &adept2.StartActivity{Instance: id, Node: "fix", User: "ann"})
		}
	}
	clk.advance(time.Hour)
	sweep("timeout")
	if live, rec := fmt.Sprint(sys.OpenExceptions()), fmt.Sprint(re.OpenExceptions()); live != rec {
		t.Errorf("open exceptions: live %s, recovered %s", live, rec)
	}
	if d := sim.Diff(sim.Summary(sys), sim.Summary(re)); d != "" {
		t.Errorf("the recovered system summarizes otherwise:\n%s", d)
	}
}
