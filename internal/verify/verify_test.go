package verify

import (
	"strings"
	"testing"

	"adept2/internal/model"
)

// onlineOrder builds the paper's Fig. 1 online-order schema:
//
//	start -> get_order -> AND[ collect_data -> confirm_order |
//	                           compose_order -> pack_goods ] -> deliver_goods -> end
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

func hasIssue(r *Result, code Code) bool {
	for _, i := range r.Issues {
		if i.Code == code {
			return true
		}
	}
	return false
}

func TestCheckAcceptsOnlineOrder(t *testing.T) {
	r := Check(onlineOrder(t))
	if !r.OK() {
		t.Fatalf("expected OK, got: %v", r.Err())
	}
	if len(r.Issues) != 0 {
		t.Fatalf("expected no warnings, got %v", r.Issues)
	}
	if r.Blocks == nil || len(r.Blocks.Blocks()) != 1 {
		t.Fatal("block analysis missing")
	}
	if err := Err(onlineOrder(t)); err != nil {
		t.Fatalf("Err helper: %v", err)
	}
}

func TestCheckAcceptsLoopsAndChoices(t *testing.T) {
	b := model.NewBuilder("loops")
	b.DataElement("route", model.TypeInt)
	b.DataElement("again", model.TypeBool)
	init := b.Activity("init", "Init", model.WithRole("clerk"))
	b.Write("init", "route", "r")
	b.Write("init", "again", "a")
	body := b.Choice("route",
		b.Activity("x", "X", model.WithRole("clerk")),
		b.Activity("y", "Y", model.WithRole("clerk")),
	)
	loop := b.Loop(body, "again", 4)
	s, err := b.Build(b.Seq(init, loop))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	r := Check(s)
	if !r.OK() {
		t.Fatalf("expected OK, got %v", r.Err())
	}
}

func TestCheckCardinalityViolations(t *testing.T) {
	s := onlineOrder(t)
	// Second outgoing control edge from an activity.
	if err := s.AddEdge(&model.Edge{From: "get_order", To: "deliver_goods", Type: model.EdgeControl}); err != nil {
		t.Fatal(err)
	}
	r := Check(s)
	if r.OK() || !hasIssue(r, CodeCardinality) {
		t.Fatalf("expected cardinality error, got %v", r.Issues)
	}
}

func TestCheckMissingStartEnd(t *testing.T) {
	s := model.NewSchema("x", "x", 1)
	if err := s.AddNode(&model.Node{ID: "a", Type: model.NodeActivity}); err != nil {
		t.Fatal(err)
	}
	r := Check(s)
	if !hasIssue(r, CodeNoStart) || !hasIssue(r, CodeNoEnd) {
		t.Fatalf("expected no-start/no-end, got %v", r.Issues)
	}
}

func TestCheckConnectivity(t *testing.T) {
	s := onlineOrder(t)
	if err := s.AddNode(&model.Node{ID: "island", Type: model.NodeActivity, Role: "clerk"}); err != nil {
		t.Fatal(err)
	}
	// Give it valid-looking local edges to itself region? It stays
	// disconnected: no control edges at all.
	r := Check(s)
	if !hasIssue(r, CodeUnreachable) || !hasIssue(r, CodeNoExit) {
		t.Fatalf("expected connectivity errors, got %v", r.Issues)
	}
}

func TestCheckDeadlockCycleFromSyncEdges(t *testing.T) {
	// This is the I2 situation of Fig. 1: a bias sync edge
	// confirm_order ~> compose_order plus the type change's
	// send_questions ~> confirm_order yields a cycle.
	s := onlineOrder(t)
	if err := s.AddEdge(&model.Edge{From: "confirm_order", To: "compose_order", Type: model.EdgeSync}); err != nil {
		t.Fatal(err)
	}
	r := Check(s)
	if !r.OK() {
		t.Fatalf("single sync edge must be fine: %v", r.Err())
	}
	// Insert send_questions between compose_order and pack_goods.
	if err := s.RemoveEdge(model.EdgeKey{From: "compose_order", To: "pack_goods", Type: model.EdgeControl}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNode(&model.Node{ID: "send_questions", Type: model.NodeActivity, Role: "sales"}); err != nil {
		t.Fatal(err)
	}
	for _, e := range []*model.Edge{
		{From: "compose_order", To: "send_questions", Type: model.EdgeControl},
		{From: "send_questions", To: "pack_goods", Type: model.EdgeControl},
		{From: "send_questions", To: "confirm_order", Type: model.EdgeSync},
	} {
		if err := s.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	r = Check(s)
	if r.OK() || !hasIssue(r, CodeDeadlockCycle) {
		t.Fatalf("expected deadlock-cycle error, got %v", r.Issues)
	}
}

func TestCheckSyncBetweenExclusiveBranches(t *testing.T) {
	b := model.NewBuilder("xorsync")
	b.DataElement("route", model.TypeInt)
	init := b.Activity("init", "Init", model.WithRole("clerk"))
	b.Write("init", "route", "r")
	ch := b.Choice("route",
		b.Activity("x", "X", model.WithRole("clerk")),
		b.Activity("y", "Y", model.WithRole("clerk")),
	)
	b.Sync("x", "y")
	s, err := b.Build(b.Seq(init, ch))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	r := Check(s)
	if r.OK() || !hasIssue(r, CodeSyncExclusive) {
		t.Fatalf("expected sync-exclusive error, got %v", r.Issues)
	}
}

func TestCheckSyncCrossingLoopBoundary(t *testing.T) {
	b := model.NewBuilder("loopsync")
	b.DataElement("again", model.TypeBool)
	init := b.Activity("init", "Init", model.WithRole("clerk"))
	b.Write("init", "again", "a")
	par := b.Parallel(
		b.Loop(b.Activity("w", "W", model.WithRole("clerk")), "again", 3),
		b.Activity("z", "Z", model.WithRole("clerk")),
	)
	b.Sync("w", "z") // from inside the loop to outside: ambiguous per-iteration semantics
	s, err := b.Build(b.Seq(init, par))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	r := Check(s)
	if r.OK() || !hasIssue(r, CodeSyncLoop) {
		t.Fatalf("expected sync-crosses-loop error, got %v", r.Issues)
	}
}

func TestCheckSyncRedundantWarning(t *testing.T) {
	s := onlineOrder(t)
	if err := s.AddEdge(&model.Edge{From: "collect_data", To: "confirm_order", Type: model.EdgeSync}); err != nil {
		t.Fatal(err)
	}
	r := Check(s)
	if !r.OK() {
		t.Fatalf("redundant sync is only a warning: %v", r.Err())
	}
	if !hasIssue(r, CodeSyncRedundant) {
		t.Fatalf("expected sync-redundant warning, got %v", r.Issues)
	}
}

func TestCheckSyncOnStartEnd(t *testing.T) {
	s := onlineOrder(t)
	if err := s.AddEdge(&model.Edge{From: "start", To: "deliver_goods", Type: model.EdgeSync}); err != nil {
		t.Fatal(err)
	}
	r := Check(s)
	if r.OK() || !hasIssue(r, CodeSyncEndpoint) {
		t.Fatalf("expected sync-endpoint error, got %v", r.Issues)
	}
}

func TestCheckMissingData(t *testing.T) {
	b := model.NewBuilder("missing")
	b.DataElement("d", model.TypeString)
	a := b.Activity("a", "A", model.WithRole("clerk"))
	c := b.Activity("c", "C", model.WithRole("clerk"))
	b.Read("c", "d", "in", true) // nobody writes d
	s, err := b.Build(b.Seq(a, c))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	r := Check(s)
	if r.OK() || !hasIssue(r, CodeMissingData) {
		t.Fatalf("expected missing-data error, got %v", r.Issues)
	}
}

func TestCheckMissingDataOnXORPath(t *testing.T) {
	// Writer only on one XOR branch; reader after the join must fail.
	b := model.NewBuilder("xorwrite")
	b.DataElement("route", model.TypeInt)
	b.DataElement("d", model.TypeString)
	init := b.Activity("init", "Init", model.WithRole("clerk"))
	b.Write("init", "route", "r")
	wx := b.Activity("wx", "WX", model.WithRole("clerk"))
	b.Write("wx", "d", "out")
	ch := b.Choice("route", wx, b.Empty())
	rd := b.Activity("rd", "RD", model.WithRole("clerk"))
	b.Read("rd", "d", "in", true)
	s, err := b.Build(b.Seq(init, ch, rd))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	r := Check(s)
	if r.OK() || !hasIssue(r, CodeMissingData) {
		t.Fatalf("expected missing-data error for XOR-only writer, got %v", r.Issues)
	}
}

func TestCheckDataSuppliedThroughANDJoin(t *testing.T) {
	// Writer inside one AND branch; reader after the join is fine (union).
	b := model.NewBuilder("andwrite")
	b.DataElement("d", model.TypeString)
	w := b.Activity("w", "W", model.WithRole("clerk"))
	b.Write("w", "d", "out")
	par := b.Parallel(w, b.Activity("z", "Z", model.WithRole("clerk")))
	rd := b.Activity("rd", "RD", model.WithRole("clerk"))
	b.Read("rd", "d", "in", true)
	s, err := b.Build(b.Seq(par, rd))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if r := Check(s); !r.OK() {
		t.Fatalf("expected OK, got %v", r.Err())
	}
}

func TestCheckDataSuppliedThroughSyncEdge(t *testing.T) {
	// Writer in parallel branch supplies a reader in the sibling branch
	// only when a sync edge orders them.
	build := func(withSync bool) *model.Schema {
		b := model.NewBuilder("syncdata")
		b.DataElement("d", model.TypeString)
		w := b.Activity("w", "W", model.WithRole("clerk"))
		b.Write("w", "d", "out")
		rd := b.Activity("rd", "RD", model.WithRole("clerk"))
		b.Read("rd", "d", "in", true)
		par := b.Parallel(w, rd)
		if withSync {
			b.Sync("w", "rd")
		}
		s, err := b.Build(par)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		return s
	}
	if r := Check(build(false)); r.OK() || !hasIssue(r, CodeMissingData) {
		t.Fatalf("no sync edge: expected missing-data, got %v", r.Issues)
	}
	if r := Check(build(true)); !r.OK() {
		t.Fatalf("with sync edge: expected OK, got %v", r.Err())
	}
}

func TestCheckSyncSupplierInsideXORNotGuaranteed(t *testing.T) {
	// The sync source sits inside an XOR branch of its own: it may be
	// skipped, so it cannot guarantee the data supply.
	b := model.NewBuilder("syncxor")
	b.DataElement("route", model.TypeInt)
	b.DataElement("d", model.TypeString)
	init := b.Activity("init", "Init", model.WithRole("clerk"))
	b.Write("init", "route", "r")
	w := b.Activity("w", "W", model.WithRole("clerk"))
	b.Write("w", "d", "out")
	maybeW := b.Choice("route", w, b.Empty())
	rd := b.Activity("rd", "RD", model.WithRole("clerk"))
	b.Read("rd", "d", "in", true)
	par := b.Parallel(maybeW, rd)
	b.Sync("w", "rd")
	s, err := b.Build(b.Seq(init, par))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	r := Check(s)
	if r.OK() || !hasIssue(r, CodeMissingData) {
		t.Fatalf("expected missing-data (supplier skippable), got %v", r.Issues)
	}
}

func TestCheckDecisionElementIssues(t *testing.T) {
	// Unknown decision element.
	b := model.NewBuilder("unknowndec")
	ch := b.Choice("nope", b.Activity("x", "X", model.WithRole("r")), b.Empty())
	s, err := b.Build(ch)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	r := Check(s)
	if r.OK() || !hasIssue(r, CodeDecisionData) {
		t.Fatalf("expected decision-data error, got %v", r.Issues)
	}

	// Wrong decision element type: warning.
	b2 := model.NewBuilder("wrongtype")
	b2.DataElement("flag", model.TypeBool) // xor wants int
	init := b2.Activity("init", "Init", model.WithRole("clerk"))
	b2.Write("init", "flag", "f")
	ch2 := b2.Choice("flag", b2.Activity("x", "X", model.WithRole("r")), b2.Empty())
	s2, err := b2.Build(b2.Seq(init, ch2))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	r2 := Check(s2)
	if !r2.OK() {
		t.Fatalf("wrong type should only warn: %v", r2.Err())
	}
	if !hasIssue(r2, CodeDecisionData) {
		t.Fatalf("expected decision-data warning, got %v", r2.Issues)
	}
}

func TestCheckLostUpdateAndUnstableRead(t *testing.T) {
	b := model.NewBuilder("races")
	b.DataElement("d", model.TypeInt)
	w1 := b.Activity("w1", "W1", model.WithRole("clerk"))
	w2 := b.Activity("w2", "W2", model.WithRole("clerk"))
	rd := b.Activity("rd", "RD", model.WithRole("clerk"))
	b.Write("w1", "d", "o1")
	b.Write("w2", "d", "o2")
	b.Read("rd", "d", "in", false)
	s, err := b.Build(b.Parallel(w1, w2, rd))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	r := Check(s)
	if !r.OK() {
		t.Fatalf("races are warnings, not errors: %v", r.Err())
	}
	if !hasIssue(r, CodeLostUpdate) {
		t.Fatalf("expected lost-update warning, got %v", r.Issues)
	}
	if !hasIssue(r, CodeUnstableRead) {
		t.Fatalf("expected unstable-read warning, got %v", r.Issues)
	}

	// Ordering the writers with a sync edge silences the lost update.
	b2 := model.NewBuilder("ordered")
	b2.DataElement("d", model.TypeInt)
	w1 = b2.Activity("w1", "W1", model.WithRole("clerk"))
	w2 = b2.Activity("w2", "W2", model.WithRole("clerk"))
	b2.Write("w1", "d", "o1")
	b2.Write("w2", "d", "o2")
	b2.Sync("w1", "w2")
	s2, err := b2.Build(b2.Parallel(w1, w2))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if r2 := Check(s2); hasIssue(r2, CodeLostUpdate) {
		t.Fatalf("sync-ordered writers must not warn: %v", r2.Issues)
	}
}

func TestCheckUnassignedRoleWarning(t *testing.T) {
	b := model.NewBuilder("norole")
	s, err := b.Build(b.Activity("a", "A")) // manual, no role
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	r := Check(s)
	if !r.OK() || !hasIssue(r, CodeUnassignedRole) {
		t.Fatalf("expected unassigned-role warning, got %v", r.Issues)
	}
}

func TestResultErrFormatting(t *testing.T) {
	s := model.NewSchema("x", "x", 1)
	r := Check(s)
	err := r.Err()
	if err == nil {
		t.Fatal("empty schema must fail")
	}
	if !strings.Contains(err.Error(), string(CodeNoStart)) {
		t.Fatalf("error should mention code: %v", err)
	}
	if len(r.Errors()) == 0 {
		t.Fatal("Errors() empty")
	}
	var iss Issue
	iss = r.Errors()[0]
	if iss.String() == "" || Error.String() != "error" || Warning.String() != "warning" {
		t.Fatal("string methods broken")
	}
}
