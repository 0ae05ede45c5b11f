package engine

import (
	"strings"
	"testing"
	"time"
	"unsafe"

	"adept2/internal/model"
	"adept2/internal/org"
	"adept2/internal/state"
)

func TestXORDecisionElementErrors(t *testing.T) {
	// Auto split whose element holds a non-integer: the cascade surfaces
	// the error to the completing call.
	b := model.NewBuilder("badelem")
	b.DataElement("route", model.TypeString) // wrong type on purpose
	init := b.Activity("init", "Init", model.WithRole("clerk"))
	b.Write("init", "route", "r")
	ch := b.Choice("route",
		b.Activity("x", "X", model.WithRole("clerk")),
		b.Activity("y", "Y", model.WithRole("clerk")),
	)
	s, err := b.Build(b.Seq(init, ch))
	if err != nil {
		t.Fatal(err)
	}
	// The verifier warns about the element type but does not reject, so
	// the runtime guard matters.
	e := New(demoOrg(t))
	if err := e.Deploy(s); err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstance("badelem", 0)
	if err != nil {
		t.Fatal(err)
	}
	err = e.CompleteActivity(inst.ID(), "init", "ann", map[string]any{"r": "north"})
	if err == nil || !strings.Contains(err.Error(), "not an integer") {
		t.Fatalf("expected integer-decision error, got %v", err)
	}
}

func TestEngineAccessors(t *testing.T) {
	e := newEngine(t)
	if _, ok := e.Schema("online_order", 1); !ok {
		t.Fatal("schema lookup")
	}
	if _, ok := e.Schema("online_order", 9); ok {
		t.Fatal("missing version lookup")
	}
	inst, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	ds := inst.DataSnapshot()
	if ds == nil {
		t.Fatal("data snapshot")
	}
}

func TestCompleteUnknownNodeAndInstance(t *testing.T) {
	e := newEngine(t)
	inst, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CompleteActivity(inst.ID(), "ghost", "ann", nil); err == nil {
		t.Fatal("unknown node must fail")
	}
	if err := e.CompleteActivity("ghost", "get_order", "ann", nil); err == nil {
		t.Fatal("unknown instance must fail")
	}
	// Completing a node that is merely not activated fails cleanly.
	if err := e.CompleteActivity(inst.ID(), "deliver_goods", "bob", nil); err == nil {
		t.Fatal("not-activated completion must fail")
	}
}

func TestOptionalReadZeroFill(t *testing.T) {
	b := model.NewBuilder("opt")
	b.DataElement("note", model.TypeString)
	a := b.Activity("a", "A", model.WithRole("clerk"))
	b.Read("a", "note", "n", false) // optional, never written
	s, err := b.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	e := New(demoOrg(t))
	if err := e.Deploy(s); err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstance("opt", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CompleteActivity(inst.ID(), "a", "ann", nil); err != nil {
		t.Fatal(err)
	}
	for _, ev := range inst.HistoryEvents() {
		if ev.Node == "a" && ev.Reads() != nil {
			if v, _ := ev.Reads().Get("n"); v != "" {
				t.Fatalf("optional read should zero-fill, got %v", v)
			}
		}
	}
}

// TestRetainedNodeStringsAreTheSchemas: what an instance keeps of a command
// — the writer of a data version, the keys of its exception maps, the node
// of a work item — is the schema's node ID, not the string the command
// arrived with. Over rpc that string is decoded per command; kept, every
// one of them would be a small allocation the instance holds for life. The
// commands here carry clones, and each retained string must be the
// schema's by address.
func TestRetainedNodeStringsAreTheSchemas(t *testing.T) {
	b := model.NewBuilder("order")
	b.DataElement("order", model.TypeString)
	get := b.Activity("get_order", "Get Order", model.WithRole("clerk"), model.WithDeadline(time.Second))
	b.Write("get_order", "order", "out")
	s, err := b.Build(b.Seq(get, b.Activity("ship", "Ship", model.WithRole("clerk"))))
	if err != nil {
		t.Fatal(err)
	}
	e := New(demoOrg(t))
	if err := e.Deploy(s); err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstance("order", 0)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := s.Node("get_order")
	cmd := func() string { return strings.Clone("get_order") }
	check := func(what, kept string) {
		t.Helper()
		if kept != n.ID || unsafe.StringData(kept) != unsafe.StringData(n.ID) {
			t.Errorf("%s keeps %q at %p, not the schema's node ID at %p", what, kept, unsafe.StringData(kept), unsafe.StringData(n.ID))
		}
	}
	keys := func(what string, n int, each func(yield func(string))) {
		t.Helper()
		seen := 0
		each(func(k string) { seen++; check(what, k) })
		if seen != n {
			t.Errorf("%s holds %d keys, want %d", what, seen, n)
		}
	}

	// The one user string an instance keeps is its work item's, and that
	// is the org model's.
	ann, _ := e.Org().User("ann")
	if err := e.StartActivityAt(inst.ID(), cmd(), strings.Clone("ann"), 1000); err != nil {
		t.Fatal(err)
	}
	if it, _ := e.Worklist().ItemFor(inst.ID(), "get_order"); it == nil || it.ClaimedBy != "ann" || unsafe.StringData(it.ClaimedBy) != unsafe.StringData(ann.ID) {
		t.Errorf("the started work item is %+v, want it started by the org model's %q at %p", it, ann.ID, unsafe.StringData(ann.ID))
	}
	records := func(want ExceptionState) {
		t.Helper()
		keys("the exception records", 1, func(y func(string)) {
			for k := range inst.run.exceptions {
				y(k)
			}
		})
		if got := inst.ExceptionState(cmd()); got != want {
			t.Errorf("the exception record is %+v, want %+v", got, want)
		}
	}
	records(ExceptionState{Deadline: 1000 + int64(time.Second), Armed: true})
	if err := inst.Mutate(func(mx *Mutable) error { _, err := mx.Timeout(cmd()); return err }); err != nil {
		t.Fatal(err)
	}
	records(ExceptionState{Escalated: true})
	if it, ok := e.Worklist().ItemFor(inst.ID(), "get_order"); !ok {
		t.Error("no escalated work item")
	} else {
		check("the escalated work item", it.Node)
	}
	if err := inst.Mutate(func(mx *Mutable) error {
		if _, err := mx.Fail(cmd(), "ann", "boom"); err != nil {
			return err
		}
		mx.Suppress(cmd(), 5000, true)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	records(ExceptionState{RetryAt: 5000, Failures: 1, Pending: true})
	if err := e.RetryActivity(inst.ID(), cmd()); err != nil {
		t.Fatal(err)
	}
	if err := e.CompleteActivity(inst.ID(), cmd(), "ann", map[string]any{"out": "o-1"}); err != nil {
		t.Fatal(err)
	}
	vs := inst.store.Versions("order")
	if len(vs) != 1 {
		t.Fatalf("%d versions of the order, want 1", len(vs))
	}
	check("the data version's writer", vs[0].Writer)

	// A user who joined the role after the offer may start its item, and
	// what the item keeps for them is the org model's string too.
	if err := e.Org().AddUser(&org.User{ID: "eve", Roles: []string{"clerk"}}); err != nil {
		t.Fatal(err)
	}
	eve, _ := e.Org().User("eve")
	if err := e.StartActivityAt(inst.ID(), strings.Clone("ship"), strings.Clone("eve"), 2000); err != nil {
		t.Fatal(err)
	}
	if it, _ := e.Worklist().ItemFor(inst.ID(), "ship"); it == nil || it.ClaimedBy != "eve" || unsafe.StringData(it.ClaimedBy) != unsafe.StringData(eve.ID) {
		t.Errorf("a late member's start: the work item is %+v, want it started by the org model's %q at %p", it, eve.ID, unsafe.StringData(eve.ID))
	}
}

// TestReconcileKeepsWhatTheNodeStateAllows: the worklist sync keeps of a
// node's one exception record exactly the fields its state allows — a
// deadline and an escalation while it runs, a retry backoff and a pending
// compensation while it is activated, a failure count in either — and
// drops the record when nothing is left.
func TestReconcileKeepsWhatTheNodeStateAllows(t *testing.T) {
	e := newEngine(t)
	inst, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	const node = "get_order"
	full := ExceptionState{Deadline: 7, RetryAt: 9, Failures: 2, Armed: true, Escalated: true, Pending: true}
	for _, tc := range []struct {
		st   state.NodeState
		want ExceptionState
	}{
		{state.Running, ExceptionState{Deadline: 7, Failures: 2, Armed: true, Escalated: true}},
		{state.Activated, ExceptionState{RetryAt: 9, Failures: 2, Pending: true}},
		{state.NotActivated, ExceptionState{}},
		{state.Completed, ExceptionState{}},
		{state.Skipped, ExceptionState{}},
	} {
		inst.mu.Lock()
		inst.run.marking.SetNode(node, tc.st)
		inst.run.exceptions = map[string]ExceptionState{node: full}
		inst.reconcileExceptionsLocked()
		got, kept := inst.run.exceptions[node]
		inst.mu.Unlock()
		if got != tc.want || kept != (tc.want != ExceptionState{}) {
			t.Errorf("%s: record %+v (stored %t), want %+v", tc.st, got, kept, tc.want)
		}
		if x := inst.ExceptionState(node); x != tc.want {
			t.Errorf("%s: ExceptionState reads %+v, want %+v", tc.st, x, tc.want)
		}
	}
}
