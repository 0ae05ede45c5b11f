// Command onlineorder reproduces the exact demo walkthrough of the ADEPT2
// paper (Fig. 1 and Fig. 3): an online-order process evolves from version
// V1 to V2 while three instances are in flight — I1 migrates with
// automatic state adaptation, the ad-hoc modified I2 is caught by a
// structural conflict (a would-be deadlock cycle), and I3 is caught by a
// state conflict.
package main

import (
	"context"
	"fmt"
	"log"

	"adept2"
)

// buildOnlineOrder models version 1 of the paper's online-order process.
func buildOnlineOrder() *adept2.Schema {
	b := adept2.NewBuilder("online_order")
	b.DataElement("order", adept2.TypeString)
	get := b.Activity("get_order", "Get Order", adept2.WithRole("clerk"))
	branchA := b.Seq(
		b.Activity("collect_data", "Collect Data", adept2.WithRole("clerk")),
		b.Activity("confirm_order", "Confirm Order", adept2.WithRole("sales")),
	)
	branchB := b.Seq(
		b.Activity("compose_order", "Compose Order", adept2.WithRole("warehouse")),
		b.Activity("pack_goods", "Pack Goods", adept2.WithRole("warehouse")),
	)
	deliver := b.Activity("deliver_goods", "Deliver Goods", adept2.WithRole("courier"))
	b.Write("get_order", "order", "out")
	b.Read("confirm_order", "order", "in", true)
	b.Read("compose_order", "order", "in", true)
	s, err := b.Build(b.Seq(get, b.Parallel(branchA, branchB), deliver))
	if err != nil {
		log.Fatalf("build: %v", err)
	}
	return s
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func main() {
	sys := adept2.New()
	// submit hands one command to the system and returns its result.
	submit := func(cmd adept2.Command) any {
		res, err := sys.Submit(context.Background(), cmd)
		must(err)
		return res
	}
	for _, u := range []*adept2.User{
		{ID: "ann", Roles: []string{"clerk", "sales"}},
		{ID: "bob", Roles: []string{"warehouse", "courier"}},
	} {
		submit(&adept2.AddUser{User: u})
	}
	submit(&adept2.Deploy{Schema: buildOnlineOrder()})

	// I1: both branches progressed, confirm_order and pack_goods not yet
	// started (the compliant instance of Fig. 1).
	i1 := submit(&adept2.CreateInstance{TypeName: "online_order"}).(*adept2.Instance)
	submit(&adept2.CompleteActivity{Instance: i1.ID(), Node: "get_order", User: "ann", Outputs: map[string]any{"out": "order-1001"}})
	submit(&adept2.CompleteActivity{Instance: i1.ID(), Node: "collect_data", User: "ann"})
	submit(&adept2.CompleteActivity{Instance: i1.ID(), Node: "compose_order", User: "bob"})

	// I2: individually modified — send_brochure inserted, and composition
	// must wait for confirmation (sync edge). This bias later collides
	// with the type change.
	i2 := submit(&adept2.CreateInstance{TypeName: "online_order"}).(*adept2.Instance)
	submit(&adept2.CompleteActivity{Instance: i2.ID(), Node: "get_order", User: "ann", Outputs: map[string]any{"out": "order-1002"}})
	submit(&adept2.AdHoc{Instance: i2.ID(), Ops: []adept2.Operation{
		&adept2.SerialInsert{
			Node: &adept2.Node{ID: "send_brochure", Name: "Send Brochure", Type: adept2.NodeActivity, Role: "sales", Template: "send_brochure"},
			Pred: "collect_data",
			Succ: "confirm_order",
		},
		&adept2.InsertSyncEdge{From: "confirm_order", To: "compose_order"},
	}})

	// I3: the warehouse already packed the goods (the state-conflict
	// instance of Fig. 1).
	i3 := submit(&adept2.CreateInstance{TypeName: "online_order"}).(*adept2.Instance)
	submit(&adept2.CompleteActivity{Instance: i3.ID(), Node: "get_order", User: "ann", Outputs: map[string]any{"out": "order-1003"}})
	submit(&adept2.CompleteActivity{Instance: i3.ID(), Node: "collect_data", User: "ann"})
	submit(&adept2.CompleteActivity{Instance: i3.ID(), Node: "compose_order", User: "bob"})
	submit(&adept2.CompleteActivity{Instance: i3.ID(), Node: "pack_goods", User: "bob"})

	// The type change ΔT of Fig. 1: insert send_questions between
	// compose_order and pack_goods, synchronized before confirm_order.
	deltaT := []adept2.Operation{
		&adept2.SerialInsert{
			Node: &adept2.Node{ID: "send_questions", Name: "Send Questions", Type: adept2.NodeActivity, Role: "sales", Template: "send_questions"},
			Pred: "compose_order",
			Succ: "pack_goods",
		},
		&adept2.InsertSyncEdge{From: "send_questions", To: "confirm_order"},
	}
	fmt.Println("=== evolving online_order V1 -> V2 ===")
	report := submit(&adept2.Evolve{TypeName: "online_order", Ops: deltaT}).(*adept2.MigrationReport)
	fmt.Print(adept2.FormatReport(report))

	fmt.Println("\n=== I1 after migration (state adapted, Fig. 1 bottom) ===")
	fmt.Print(adept2.RenderInstance(i1))
	fmt.Println("\n=== I2 remains on V1 (ad-hoc modified) ===")
	fmt.Print(adept2.RenderInstance(i2))
	fmt.Println("\n=== I3 remains on V1 ===")
	fmt.Print(adept2.RenderInstance(i3))

	// All three instances complete on their respective versions.
	submit(&adept2.CompleteActivity{Instance: i1.ID(), Node: "send_questions", User: "ann"})
	submit(&adept2.CompleteActivity{Instance: i1.ID(), Node: "confirm_order", User: "ann"})
	submit(&adept2.CompleteActivity{Instance: i1.ID(), Node: "pack_goods", User: "bob"})
	submit(&adept2.CompleteActivity{Instance: i1.ID(), Node: "deliver_goods", User: "bob"})

	submit(&adept2.CompleteActivity{Instance: i2.ID(), Node: "collect_data", User: "ann"})
	submit(&adept2.CompleteActivity{Instance: i2.ID(), Node: "send_brochure", User: "ann"})
	submit(&adept2.CompleteActivity{Instance: i2.ID(), Node: "confirm_order", User: "ann"})
	submit(&adept2.CompleteActivity{Instance: i2.ID(), Node: "compose_order", User: "bob"})
	submit(&adept2.CompleteActivity{Instance: i2.ID(), Node: "pack_goods", User: "bob"})
	submit(&adept2.CompleteActivity{Instance: i2.ID(), Node: "deliver_goods", User: "bob"})

	submit(&adept2.CompleteActivity{Instance: i3.ID(), Node: "confirm_order", User: "ann"})
	submit(&adept2.CompleteActivity{Instance: i3.ID(), Node: "deliver_goods", User: "bob"})

	fmt.Printf("\nall done: I1=%v (v%d), I2=%v (v%d), I3=%v (v%d)\n",
		i1.Done(), i1.Version(), i2.Done(), i2.Version(), i3.Done(), i3.Version())
}
