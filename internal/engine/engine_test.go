package engine

import (
	"fmt"
	"strings"
	"testing"

	"adept2/internal/model"
	"adept2/internal/org"
	"adept2/internal/state"
)

// demoOrg returns users covering the online-order roles.
func demoOrg(t *testing.T) *org.Model {
	t.Helper()
	m := org.NewModel()
	for _, u := range []*org.User{
		{ID: "ann", Name: "Ann", Roles: []string{"clerk", "sales"}},
		{ID: "bob", Name: "Bob", Roles: []string{"warehouse", "courier"}},
	} {
		if err := m.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// onlineOrder builds the paper's Fig. 1 schema (see verify tests).
func onlineOrder(t *testing.T) *model.Schema {
	t.Helper()
	b := model.NewBuilder("online_order")
	b.DataElement("order", model.TypeString)
	get := b.Activity("get_order", "Get Order", model.WithRole("clerk"))
	branchA := b.Seq(
		b.Activity("collect_data", "Collect Data", model.WithRole("clerk")),
		b.Activity("confirm_order", "Confirm Order", model.WithRole("sales")),
	)
	branchB := b.Seq(
		b.Activity("compose_order", "Compose Order", model.WithRole("warehouse")),
		b.Activity("pack_goods", "Pack Goods", model.WithRole("warehouse")),
	)
	deliver := b.Activity("deliver_goods", "Deliver Goods", model.WithRole("courier"))
	b.Write("get_order", "order", "out")
	b.Read("confirm_order", "order", "in", true)
	b.Read("compose_order", "order", "in", true)
	s, err := b.Build(b.Seq(get, b.Parallel(branchA, branchB), deliver))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return s
}

func newEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(demoOrg(t))
	if err := e.Deploy(onlineOrder(t)); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	return e
}

func mustComplete(t *testing.T, e *Engine, inst, node, user string, out map[string]any, opts ...CompleteOption) {
	t.Helper()
	if err := e.CompleteActivity(inst, node, user, out, opts...); err != nil {
		t.Fatalf("complete %s: %v", node, err)
	}
}

func TestDeployValidation(t *testing.T) {
	e := New(nil)
	s := onlineOrder(t)
	if err := e.Deploy(s); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	if err := e.Deploy(s); err == nil {
		t.Fatal("duplicate deploy must fail")
	}
	// Older version must be rejected.
	old := model.NewVersionBuilder("online_order", 0)
	if _, err := old.Build(old.Activity("a", "A", model.WithRole("r"))); err != nil {
		t.Fatal(err)
	}
	// Version 0 is not newer than 1 — but builder made version 0 schema;
	// deploy must reject it.
	bad := model.NewVersionBuilder("online_order", 1)
	s2, err := bad.Build(bad.Activity("a", "A", model.WithRole("r")))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Deploy(s2); err == nil {
		t.Fatal("non-increasing version must fail")
	}
	// Broken schema must be rejected by verification.
	broken := model.NewSchema("x", "broken", 1)
	if err := broken.AddNode(&model.Node{ID: "a", Type: model.NodeActivity}); err != nil {
		t.Fatal(err)
	}
	if err := e.Deploy(broken); err == nil || !strings.Contains(err.Error(), "verify") {
		t.Fatalf("expected verification failure, got %v", err)
	}
	if got := e.Types(); len(got) != 1 || got[0] != "online_order" {
		t.Fatalf("Types = %v", got)
	}
	if _, ok := e.Schema("online_order", 1); !ok {
		t.Fatal("Schema v1")
	}
	if e.LatestVersion("online_order") != 1 || e.LatestVersion("nope") != 0 {
		t.Fatal("LatestVersion")
	}
}

func TestInstanceExecutionEndToEnd(t *testing.T) {
	e := newEngine(t)
	inst, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if inst.Version() != 1 || inst.TypeName() != "online_order" {
		t.Fatal("instance metadata")
	}
	// get_order is the only offered item, visible to ann (clerk).
	items := e.WorkItems("ann")
	if len(items) != 1 || items[0].Node != "get_order" {
		t.Fatalf("ann's worklist = %v", items)
	}
	if len(e.WorkItems("bob")) != 0 {
		t.Fatal("bob should see nothing yet")
	}

	// Start and complete get_order.
	if err := e.StartActivityAt(inst.ID(), "get_order", "ann", 0); err != nil {
		t.Fatal(err)
	}
	if inst.NodeState("get_order") != state.Running {
		t.Fatal("get_order should be running")
	}
	mustComplete(t, e, inst.ID(), "get_order", "ann", map[string]any{"out": "order-77"})

	// The AND split fires automatically; both branch heads are offered.
	if inst.NodeState("collect_data") != state.Activated || inst.NodeState("compose_order") != state.Activated {
		t.Fatal("branch heads should be activated")
	}
	if len(e.WorkItems("ann")) != 1 || len(e.WorkItems("bob")) != 1 {
		t.Fatalf("worklists: ann=%v bob=%v", e.WorkItems("ann"), e.WorkItems("bob"))
	}

	// Reads flow from the data store.
	mustComplete(t, e, inst.ID(), "compose_order", "bob", nil)
	ev := inst.HistoryEvents()
	var sawRead bool
	for _, h := range ev {
		if v, _ := h.Reads().Get("in"); h.Node == "compose_order" && v == "order-77" {
			sawRead = true
		}
	}
	if !sawRead {
		t.Fatalf("compose_order should have read order-77: %v", ev)
	}

	mustComplete(t, e, inst.ID(), "collect_data", "ann", nil)
	mustComplete(t, e, inst.ID(), "confirm_order", "ann", nil)
	mustComplete(t, e, inst.ID(), "pack_goods", "bob", nil)
	// AND join fired automatically; deliver_goods is last.
	mustComplete(t, e, inst.ID(), "deliver_goods", "bob", nil)
	if !inst.Done() {
		t.Fatal("instance should be done")
	}
	if e.Worklist().Len() != 0 {
		t.Fatal("worklist should be empty at completion")
	}
	if err := e.CompleteActivity(inst.ID(), "deliver_goods", "bob", nil); err == nil {
		t.Fatal("completing on a finished instance must fail")
	}
}

func TestRoleEnforcement(t *testing.T) {
	e := newEngine(t)
	inst, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.StartActivityAt(inst.ID(), "get_order", "bob", 0); err == nil {
		t.Fatal("bob lacks the clerk role")
	}
	if err := e.StartActivityAt(inst.ID(), "get_order", "", 0); err == nil {
		t.Fatal("anonymous start of role-bound activity must fail")
	}
	if err := e.StartActivityAt(inst.ID(), "ghost", "ann", 0); err == nil {
		t.Fatal("unknown node must fail")
	}
	if err := e.StartActivityAt("nope", "get_order", "ann", 0); err == nil {
		t.Fatal("unknown instance must fail")
	}
	if err := e.StartActivityAt(inst.ID(), "collect_data", "ann", 0); err == nil {
		t.Fatal("not-activated node must fail")
	}
}

func TestMandatoryInputBlocksStart(t *testing.T) {
	// Reader whose writer is skipped would block; here we simply drop the
	// writer's output by violating the protocol: completing get_order
	// without the output is already rejected.
	e := newEngine(t)
	inst, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	err = e.CompleteActivity(inst.ID(), "get_order", "ann", nil)
	if err == nil || !strings.Contains(err.Error(), "missing output") {
		t.Fatalf("expected missing output error, got %v", err)
	}
	// Unknown parameter names are rejected too.
	err = e.CompleteActivity(inst.ID(), "get_order", "ann", map[string]any{"out": "x", "bogus": 1})
	if err == nil || !strings.Contains(err.Error(), "unknown output") {
		t.Fatalf("expected unknown output error, got %v", err)
	}
	// Type mismatches are rejected.
	err = e.CompleteActivity(inst.ID(), "get_order", "ann", map[string]any{"out": 42})
	if err == nil || !strings.Contains(err.Error(), "not assignable") {
		t.Fatalf("expected coercion error, got %v", err)
	}
}

func TestXORDecisionRouting(t *testing.T) {
	b := model.NewBuilder("route")
	b.DataElement("route", model.TypeInt)
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
	e := New(demoOrg(t))
	if err := e.Deploy(s); err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstance("route", 0)
	if err != nil {
		t.Fatal(err)
	}
	mustComplete(t, e, inst.ID(), "init", "ann", map[string]any{"r": 1})
	// The XOR split consumed route=1 automatically: y activated, x skipped.
	if inst.NodeState("y") != state.Activated {
		t.Fatalf("y should be activated, is %s", inst.NodeState("y"))
	}
	if inst.NodeState("x") != state.Skipped {
		t.Fatalf("x should be skipped, is %s", inst.NodeState("x"))
	}
	mustComplete(t, e, inst.ID(), "y", "ann", nil)
	if !inst.Done() {
		t.Fatal("instance should be done")
	}
}

func TestXORManualDecisionAndClamping(t *testing.T) {
	b := model.NewBuilder("manual")
	ch := b.Choice("", // manual decision
		b.Activity("x", "X", model.WithRole("clerk")),
		b.Activity("y", "Y", model.WithRole("clerk")),
	)
	s, err := b.Build(ch)
	if err != nil {
		t.Fatal(err)
	}
	var split string
	for _, n := range s.Nodes() {
		if n.Type == model.NodeXORSplit {
			split = n.ID
		}
	}
	e := New(demoOrg(t))
	if err := e.Deploy(s); err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstance("manual", 0)
	if err != nil {
		t.Fatal(err)
	}
	// The manual split waits in activated state.
	if inst.NodeState(split) != state.Activated {
		t.Fatalf("split should wait for manual decision, is %s", inst.NodeState(split))
	}
	// Completing without a decision fails.
	if err := e.CompleteActivity(inst.ID(), split, "", nil); err == nil {
		t.Fatal("xor completion without decision must fail")
	}
	// An unmatched decision code clamps to the lowest branch code.
	mustComplete(t, e, inst.ID(), split, "", nil, WithDecision(42))
	if inst.NodeState("x") != state.Activated {
		t.Fatalf("clamped decision should choose x, x is %s", inst.NodeState("x"))
	}
}

func TestLoopExecution(t *testing.T) {
	b := model.NewBuilder("loop")
	b.DataElement("again", model.TypeBool)
	init := b.Activity("init", "Init", model.WithRole("clerk"))
	b.Write("init", "again", "a")
	work := b.Activity("work", "Work", model.WithRole("clerk"))
	b.Write("work", "again", "more")
	loop := b.Loop(work, "again", 10)
	s, err := b.Build(b.Seq(init, loop))
	if err != nil {
		t.Fatal(err)
	}
	var le string
	for _, n := range s.Nodes() {
		if n.Type == model.NodeLoopEnd {
			le = n.ID
		}
	}
	e := New(demoOrg(t))
	if err := e.Deploy(s); err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstance("loop", 0)
	if err != nil {
		t.Fatal(err)
	}
	mustComplete(t, e, inst.ID(), "init", "ann", map[string]any{"a": true})
	// First iteration: work activated again after loop end auto-decides
	// against the 'again=true' element.
	mustComplete(t, e, inst.ID(), "work", "ann", map[string]any{"more": true})
	if inst.NodeState("work") != state.Activated {
		t.Fatalf("second iteration should re-activate work, is %s", inst.NodeState("work"))
	}
	if inst.LoopIterations(le) != 1 {
		t.Fatalf("loop iterations = %d, want 1", inst.LoopIterations(le))
	}
	// Second iteration exits.
	mustComplete(t, e, inst.ID(), "work", "ann", map[string]any{"more": false})
	if !inst.Done() {
		t.Fatal("instance should be done after loop exit")
	}
	// History keeps both iterations physically.
	var workCompletions int
	for _, ev := range inst.HistoryEvents() {
		if ev.Node == "work" && ev.Kind == 1 {
			workCompletions++
		}
	}
	if workCompletions != 2 {
		t.Fatalf("physical history should keep both iterations, got %d", workCompletions)
	}
}

func TestMaxIterationsCapsLoop(t *testing.T) {
	b := model.NewBuilder("cap")
	b.DataElement("again", model.TypeBool)
	init := b.Activity("init", "Init", model.WithRole("clerk"))
	b.Write("init", "again", "a")
	work := b.Activity("work", "Work", model.WithRole("clerk"))
	loop := b.Loop(work, "again", 3) // element always true, cap 3
	s, err := b.Build(b.Seq(init, loop))
	if err != nil {
		t.Fatal(err)
	}
	e := New(demoOrg(t))
	if err := e.Deploy(s); err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstance("cap", 0)
	if err != nil {
		t.Fatal(err)
	}
	mustComplete(t, e, inst.ID(), "init", "ann", map[string]any{"a": true})
	for i := 0; i < 3; i++ {
		if inst.Done() {
			t.Fatalf("done too early at iteration %d", i)
		}
		mustComplete(t, e, inst.ID(), "work", "ann", nil)
	}
	if !inst.Done() {
		t.Fatal("cap must force loop exit after 3 iterations")
	}
}

func TestInstancesEnumeration(t *testing.T) {
	e := newEngine(t)
	for i := 0; i < 3; i++ {
		if _, err := e.CreateInstance("online_order", 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(e.Instances()); got != 3 {
		t.Fatalf("Instances = %d", got)
	}
	if got := len(e.InstancesOf("online_order", 1)); got != 3 {
		t.Fatalf("InstancesOf v1 = %d", got)
	}
	if got := len(e.InstancesOf("online_order", 2)); got != 0 {
		t.Fatalf("InstancesOf v2 = %d", got)
	}
	if got := len(e.InstancesOf("zz", -1)); got != 0 {
		t.Fatalf("InstancesOf zz = %d", got)
	}
	if _, err := e.CreateInstance("zz", 0); err == nil {
		t.Fatal("unknown type must fail")
	}
	inst := e.Instances()[0]
	if _, ok := e.Instance(inst.ID()); !ok {
		t.Fatal("Instance lookup")
	}
	snap := inst.MarkingSnapshot()
	if snap.Node("get_order") != state.Activated {
		t.Fatal("snapshot state")
	}
	if inst.Biased() || len(inst.BiasOps()) != 0 || inst.Migrations() != 0 {
		t.Fatal("fresh instance must be unbiased")
	}
	fp := inst.Footprint()
	if fp.BiasBytes != 0 || fp.StateBytes == 0 {
		t.Fatalf("footprint = %+v", fp)
	}
}

// TestInstanceIDFormat: the hand-formatted ID is "inst-%06d" at every
// width, which CreateInstanceID parses back to advance the counter.
func TestInstanceIDFormat(t *testing.T) {
	for _, n := range []int{1, 9, 10, 99999, 100000, 999999, 1000000, 123456789} {
		if got, want := instanceID(n), fmt.Sprintf("inst-%06d", n); got != want {
			t.Fatalf("instanceID(%d) = %q, want %q", n, got, want)
		}
	}
}

// TestOfferKeepsItsCandidates: a work item aliases the role's candidate
// slice, and a user added later must not appear in an offer already made
// (what replay relies on: the offer is a function of the commands before
// it) while the next offer for the role includes them.
func TestOfferKeepsItsCandidates(t *testing.T) {
	e := newEngine(t)
	first, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Org().AddUser(&org.User{ID: "abe", Roles: []string{"clerk"}}); err != nil {
		t.Fatal(err)
	}
	second, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	offered := func(inst *Instance) string {
		it, ok := e.Worklist().ItemFor(inst.ID(), "get_order")
		if !ok {
			t.Fatalf("no get_order item for %s", inst.ID())
		}
		return strings.Join(it.Offered, ",")
	}
	if got := offered(first); got != "ann" {
		t.Fatalf("offer made before AddUser now lists %s", got)
	}
	if got := offered(second); got != "abe,ann" {
		t.Fatalf("offer made after AddUser lists %s", got)
	}
	if len(e.WorkItems("abe")) != 1 {
		t.Fatalf("abe sees %d items, want the one offered after joining", len(e.WorkItems("abe")))
	}
}
