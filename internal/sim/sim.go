// Package sim provides deterministic workload generation for tests,
// examples, and the experiment harness: the paper's online-order scenario
// (Fig. 1 / Fig. 3), randomized block-structured schemas, a random
// execution driver, and random ad-hoc changes. Everything is seeded
// explicitly, so experiments are reproducible.
//
// It also holds the checks the randomized system tests share: Summary and
// Diff for state equality, and a Ledger of what a system acknowledged,
// which Ledger.Check holds a recovered system to.
package sim

import (
	"fmt"

	"adept2/internal/change"
	"adept2/internal/engine"
	"adept2/internal/model"
	"adept2/internal/org"
)

// Org returns an organizational model covering the demo roles plus a pool
// of generic workers for random schemas.
func Org() *org.Model {
	m := org.NewModel()
	users := []*org.User{
		{ID: "ann", Name: "Ann", Roles: []string{"clerk", "sales", "worker"}},
		{ID: "bob", Name: "Bob", Roles: []string{"warehouse", "courier", "worker"}},
		{ID: "cyn", Name: "Cyn", Roles: []string{"clerk", "warehouse", "worker"}},
		{ID: "dan", Name: "Dan", Roles: []string{"sales", "courier", "worker"}},
	}
	for _, u := range users {
		if err := m.AddUser(u); err != nil {
			panic(fmt.Sprintf("sim: org setup: %v", err))
		}
	}
	return m
}

// OnlineOrder builds version 1 of the paper's online-order process
// (Fig. 1):
//
//	start -> get_order -> AND[ collect_data -> confirm_order |
//	                           compose_order -> pack_goods ] -> deliver_goods -> end
//
// with the order record written by get_order and read by both branches.
func OnlineOrder() *model.Schema {
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
		panic(fmt.Sprintf("sim: online order schema: %v", err))
	}
	return s
}

// OnlineOrderTypeChange is the ΔT of Fig. 1: addActivity(send_questions)
// between compose_order and pack_goods plus insertSyncEdge(send_questions,
// confirm_order) — the customer must receive the questionnaire before the
// order is confirmed.
func OnlineOrderTypeChange() []change.Operation {
	return []change.Operation{
		&change.SerialInsert{
			Node: &model.Node{ID: "send_questions", Name: "Send Questions", Type: model.NodeActivity, Role: "sales", Template: "send_questions"},
			Pred: "compose_order",
			Succ: "pack_goods",
		},
		&change.InsertSyncEdge{From: "send_questions", To: "confirm_order"},
	}
}

// OnlineOrderBiasI2 is the ad-hoc bias of instance I2 in Fig. 1: a
// send_brochure activity before confirm_order plus a sync edge forcing
// composition to wait for confirmation. Together with ΔT this creates a
// deadlock-causing cycle — the structural conflict of the paper.
func OnlineOrderBiasI2() []change.Operation {
	return []change.Operation{
		&change.SerialInsert{
			Node: &model.Node{ID: "send_brochure", Name: "Send Brochure", Type: model.NodeActivity, Role: "sales", Template: "send_brochure"},
			Pred: "collect_data",
			Succ: "confirm_order",
		},
		&change.InsertSyncEdge{From: "confirm_order", To: "compose_order"},
	}
}

// AdvanceOnlineOrderToI1 brings a fresh online-order instance into the I1
// state of Fig. 1: get_order, collect_data, and compose_order completed;
// confirm_order and pack_goods activated but not started.
func AdvanceOnlineOrderToI1(e *engine.Engine, inst *engine.Instance) error {
	steps := []struct {
		node, user string
		out        map[string]any
	}{
		{"get_order", "ann", map[string]any{"out": "order-1"}},
		{"collect_data", "ann", nil},
		{"compose_order", "bob", nil},
	}
	for _, s := range steps {
		if err := e.CompleteActivity(inst.ID(), s.node, s.user, s.out); err != nil {
			return err
		}
	}
	return nil
}

// AdvanceOnlineOrderToI3 brings a fresh instance into the I3 state of
// Fig. 1: the warehouse branch has already packed the goods, so the type
// change arrives too late (state conflict).
func AdvanceOnlineOrderToI3(e *engine.Engine, inst *engine.Instance) error {
	if err := AdvanceOnlineOrderToI1(e, inst); err != nil {
		return err
	}
	return e.CompleteActivity(inst.ID(), "pack_goods", "bob", nil)
}
