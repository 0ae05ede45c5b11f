// Command quickstart shows the minimal ADEPT2 workflow: model a schema,
// deploy it, drive an instance through its worklist, and apply an ad-hoc
// change while the instance runs.
package main

import (
	"context"
	"fmt"
	"log"

	"adept2"
)

func main() {
	// 1. Model a small credit-request process.
	b := adept2.NewBuilder("credit_request")
	b.DataElement("amount", adept2.TypeInt)
	receive := b.Activity("receive", "Receive Request", adept2.WithRole("clerk"))
	b.Write("receive", "amount", "amount")
	check := b.Activity("check", "Check Solvency", adept2.WithRole("analyst"))
	b.Read("check", "amount", "amount", true)
	decide := b.Activity("decide", "Decide", adept2.WithRole("manager"))
	schema, err := b.Build(b.Seq(receive, check, decide))
	if err != nil {
		log.Fatalf("build schema: %v", err)
	}

	// 2. Set up the system with an org model and deploy. Every change to
	// the system is a typed command handed to Submit.
	ctx := context.Background()
	sys := adept2.New()
	for _, u := range []*adept2.User{
		{ID: "ann", Name: "Ann", Roles: []string{"clerk"}},
		{ID: "bob", Name: "Bob", Roles: []string{"analyst"}},
		{ID: "eve", Name: "Eve", Roles: []string{"manager", "analyst"}},
	} {
		if _, err := sys.Submit(ctx, &adept2.AddUser{User: u}); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := sys.Submit(ctx, &adept2.Deploy{Schema: schema}); err != nil {
		log.Fatalf("deploy: %v", err)
	}
	fmt.Print(adept2.RenderSchema(schema))

	// 3. Create an instance and work through the worklist.
	res, err := sys.Submit(ctx, &adept2.CreateInstance{TypeName: "credit_request"})
	if err != nil {
		log.Fatal(err)
	}
	inst := res.(*adept2.Instance)
	items := sys.WorkItems("ann")
	fmt.Printf("\nann's worklist: %d item(s), first: %s\n", len(items), items[0].Node)
	if _, err := sys.Submit(ctx, &adept2.CompleteActivity{
		Instance: inst.ID(), Node: "receive", User: "ann", Outputs: map[string]any{"amount": 5000}}); err != nil {
		log.Fatal(err)
	}

	// 4. Ad-hoc change: this single request additionally needs a second
	// opinion, inserted between check and decide — only for this instance.
	_, err = sys.Submit(ctx, &adept2.AdHoc{Instance: inst.ID(), Ops: []adept2.Operation{&adept2.SerialInsert{
		Node: &adept2.Node{ID: "second_opinion", Name: "Second Opinion", Type: adept2.NodeActivity, Role: "analyst", Template: "second_opinion"},
		Pred: "check",
		Succ: "decide",
	}}})
	if err != nil {
		log.Fatalf("ad-hoc change: %v", err)
	}
	fmt.Printf("\nafter ad-hoc change (biased=%v):\n", inst.Biased())
	fmt.Print(adept2.RenderInstance(inst))

	// 5. Finish the instance on its individually changed schema.
	for _, step := range []struct{ node, user string }{
		{"check", "bob"},
		{"second_opinion", "eve"},
		{"decide", "eve"},
	} {
		if _, err := sys.Submit(ctx, &adept2.CompleteActivity{Instance: inst.ID(), Node: step.node, User: step.user}); err != nil {
			log.Fatalf("complete %s: %v", step.node, err)
		}
	}
	fmt.Printf("\ninstance done: %v, history:\n", inst.Done())
	for _, e := range inst.HistoryEvents() {
		fmt.Printf("  %s\n", e)
	}
}
