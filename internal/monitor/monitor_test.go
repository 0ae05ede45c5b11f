package monitor

import (
	"strings"
	"testing"

	"adept2/internal/change"
	"adept2/internal/engine"
	"adept2/internal/evolution"
	"adept2/internal/sim"
)

func scenario(t *testing.T) (*engine.Engine, *engine.Instance, *evolution.Report) {
	t.Helper()
	e := engine.New(sim.Org())
	if err := e.Deploy(sim.OnlineOrder()); err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.AdvanceOnlineOrderToI1(e, inst); err != nil {
		t.Fatal(err)
	}
	biased, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := change.ApplyAdHoc(biased, sim.OnlineOrderBiasI2()...); err != nil {
		t.Fatal(err)
	}
	mgr := evolution.NewManager(e)
	report, err := mgr.Evolve("online_order", sim.OnlineOrderTypeChange(), evolution.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e, inst, report
}

func TestRenderSchema(t *testing.T) {
	out := RenderSchema(sim.OnlineOrder())
	for _, want := range []string{"online_order", "get_order", "and-split", "role=clerk", "data flow", "order"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderSchema missing %q:\n%s", want, out)
		}
	}
	// Sync edges and XOR codes render distinctly.
	s2 := sim.OnlineOrder()
	for _, op := range sim.OnlineOrderTypeChange() {
		if err := op.ApplyTo(s2); err != nil {
			t.Fatal(err)
		}
	}
	out2 := RenderSchema(s2)
	if !strings.Contains(out2, "~sync~> confirm_order") {
		t.Errorf("sync edge rendering missing:\n%s", out2)
	}
}

func TestRenderInstanceAndReport(t *testing.T) {
	_, inst, report := scenario(t)
	out := RenderInstance(inst)
	for _, want := range []string{inst.ID(), "v2", "completed", "send_questions"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderInstance missing %q:\n%s", want, out)
		}
	}
	rep := FormatReport(report)
	for _, want := range []string{"v1 -> v2", "migrated", "structural-conflict", "deadlock", "ad-hoc modified"} {
		if !strings.Contains(rep, want) {
			t.Errorf("FormatReport missing %q:\n%s", want, rep)
		}
	}
}

func TestSummarizeWorklists(t *testing.T) {
	e, _, _ := scenario(t)
	out := SummarizeWorklists(e)
	if !strings.Contains(out, "ann:") {
		t.Errorf("worklist summary missing users:\n%s", out)
	}
	empty := engine.New(nil)
	if got := SummarizeWorklists(empty); got != "no work items\n" {
		t.Errorf("empty summary = %q", got)
	}
}
