package engine

import (
	"strings"
	"testing"

	"adept2/internal/model"
	"adept2/internal/storage"
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

func TestWorklistReleaseRoundTrip(t *testing.T) {
	e := newEngine(t)
	if _, err := e.CreateInstance("online_order", 0); err != nil {
		t.Fatal(err)
	}
	items := e.WorkItems("ann")
	if len(items) != 1 {
		t.Fatal("setup")
	}
	if err := e.Claim(items[0].ID, "ann"); err != nil {
		t.Fatal(err)
	}
	if err := e.Release(items[0].ID, "ann"); err != nil {
		t.Fatal(err)
	}
	if err := e.Claim(items[0].ID, "ann"); err != nil {
		t.Fatalf("re-claim after release: %v", err)
	}
}

func TestEngineAccessors(t *testing.T) {
	e := newEngine(t)
	if e.StorageStrategy() != storage.Hybrid {
		t.Fatal("default strategy")
	}
	e.SetStorageStrategy(storage.OnTheFly)
	if e.StorageStrategy() != storage.OnTheFly {
		t.Fatal("strategy setter")
	}
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
	if inst.Strategy() != storage.OnTheFly {
		t.Fatal("instance strategy")
	}
	snap := inst.StatsSnapshot()
	if snap == nil {
		t.Fatal("stats snapshot")
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
