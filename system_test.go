package adept2_test

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"adept2"
	"adept2/internal/sim"
	"adept2/internal/state"
)

func demoSystem(t *testing.T, opts ...adept2.Option) *adept2.System {
	t.Helper()
	opts = append([]adept2.Option{adept2.WithOrg(sim.Org())}, opts...)
	sys := adept2.New(opts...)
	if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	return sys
}

func TestSystemEndToEnd(t *testing.T) {
	sys := demoSystem(t)
	res, err := sys.Submit(context.Background(), &adept2.CreateInstance{TypeName: "online_order"})
	if err != nil {
		t.Fatal(err)
	}
	inst := res.(*adept2.Instance)
	items := sys.WorkItems("ann")
	if len(items) != 1 {
		t.Fatalf("worklist = %v", items)
	}
	if _, err := sys.Submit(context.Background(), &adept2.StartActivity{Instance: inst.ID(), Node: "get_order", User: "ann"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Submit(context.Background(), &adept2.CompleteActivity{Instance: inst.ID(), Node: "get_order", User: "ann", Outputs: map[string]any{"out": "o1"}}); err != nil {
		t.Fatal(err)
	}
	// Ad-hoc change through the facade.
	if _, err := sys.Submit(context.Background(), &adept2.AdHoc{Instance: inst.ID(), Ops: []adept2.Operation{&adept2.InsertSyncEdge{From: "collect_data", To: "compose_order"}}}); err != nil {
		t.Fatal(err)
	}
	if !inst.Biased() {
		t.Fatal("instance should be biased")
	}
	// Evolution through the facade.
	res, err = sys.Submit(context.Background(), &adept2.Evolve{TypeName: "online_order", Ops: sim.OnlineOrderTypeChange()})
	if err != nil {
		t.Fatal(err)
	}
	report := res.(*adept2.MigrationReport)
	if report.Count(adept2.Migrated) != 1 {
		t.Fatalf("report: %+v", report.Results)
	}
	if inst.Version() != 2 {
		t.Fatalf("version = %d", inst.Version())
	}
	// Monitoring helpers produce content.
	if !strings.Contains(adept2.RenderInstance(inst), "biased") {
		t.Fatal("RenderInstance should mention bias")
	}
	if !strings.Contains(adept2.FormatReport(report), "migrated") {
		t.Fatal("FormatReport should mention outcome")
	}
	if !strings.Contains(adept2.RenderSchema(inst.View()), "send_questions") {
		t.Fatal("RenderSchema should include the inserted activity")
	}
}

func TestSystemJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.ndjson")

	// Phase 1: run a scenario with a journal.
	sys, err := adept2.Open(path, adept2.WithOrg(sim.Org()))
	if err != nil {
		t.Fatal(err)
	}
	i1, i2 := runPrefix(t, sys)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: recover from the journal ("after the crash").
	sys2, err := adept2.Open(path, adept2.WithOrg(sim.Org()))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer sys2.Close()

	assertSameState(t, sys, sys2)
	r1, _ := sys2.Instance(i1)
	r2, _ := sys2.Instance(i2)
	// i1 migrated to v2 with adapted state.
	if r1.Version() != 2 {
		t.Fatalf("recovered i1 version = %d", r1.Version())
	}
	if got := r1.NodeState("send_questions"); got != state.Activated {
		t.Fatalf("recovered send_questions = %s", got)
	}
	// i2 kept its structural conflict on v1 with its bias.
	if r2.Version() != 1 || !r2.Biased() {
		t.Fatalf("recovered i2: version=%d biased=%v", r2.Version(), r2.Biased())
	}
	// Work continues seamlessly after recovery.
	if _, err := sys2.Submit(context.Background(), &adept2.CompleteActivity{Instance: r1.ID(), Node: "send_questions", User: "ann"}); err != nil {
		t.Fatalf("continue after recovery: %v", err)
	}
}

func TestSystemAdHocChangeUnknownInstance(t *testing.T) {
	sys := demoSystem(t)
	if _, err := sys.Submit(context.Background(), &adept2.AdHoc{Instance: "nope", Ops: []adept2.Operation{&adept2.DeleteSyncEdge{From: "a", To: "b"}}}); err == nil {
		t.Fatal("unknown instance must fail")
	}
}

func TestSystemDecisionAndLoopCompletion(t *testing.T) {
	b := adept2.NewBuilder("flow")
	ch := b.Choice("",
		b.Activity("x", "X", adept2.WithRole("worker")),
		b.Activity("y", "Y", adept2.WithRole("worker")),
	)
	loop := b.Loop(b.Activity("w", "W", adept2.WithRole("worker")), "", 5)
	schema, err := b.Build(b.Seq(ch, loop))
	if err != nil {
		t.Fatal(err)
	}
	var split, loopEnd string
	for _, n := range schema.Nodes() {
		switch n.Type {
		case adept2.NodeXORSplit:
			split = n.ID
		case adept2.NodeLoopEnd:
			loopEnd = n.ID
		}
	}
	sys := adept2.New(adept2.WithOrg(sim.Org()))
	if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: schema}); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Submit(context.Background(), &adept2.CreateInstance{TypeName: "flow"})
	if err != nil {
		t.Fatal(err)
	}
	inst := res.(*adept2.Instance)
	decision, again, stop := 1, true, false
	if _, err := sys.Submit(context.Background(), &adept2.CompleteActivity{Instance: inst.ID(), Node: split, Decision: &decision}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Submit(context.Background(), &adept2.CompleteActivity{Instance: inst.ID(), Node: "y", User: "ann"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Submit(context.Background(), &adept2.CompleteActivity{Instance: inst.ID(), Node: "w", User: "ann"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Submit(context.Background(), &adept2.CompleteActivity{Instance: inst.ID(), Node: loopEnd, Again: &again}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Submit(context.Background(), &adept2.CompleteActivity{Instance: inst.ID(), Node: "w", User: "ann"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Submit(context.Background(), &adept2.CompleteActivity{Instance: inst.ID(), Node: loopEnd, Again: &stop}); err != nil {
		t.Fatal(err)
	}
	if !inst.Done() {
		t.Fatal("instance should be done")
	}
	if inst.LoopIterations(loopEnd) != 1 {
		t.Fatalf("loop iterations = %d", inst.LoopIterations(loopEnd))
	}
}
