// Command container models the container transportation scenario of the
// paper's reference [3] (Bassil, Keller, Kropf, BPM'04): a fleet of
// transport processes with parallel customs clearance, evolved mid-flight
// to add a mandatory security scan — with durable journaling and crash
// recovery.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"adept2"
)

func buildTransport() *adept2.Schema {
	b := adept2.NewBuilder("container_transport")
	b.DataElement("manifest", adept2.TypeString)
	b.DataElement("route", adept2.TypeInt)

	book := b.Activity("book", "Book Transport", adept2.WithRole("dispatcher"))
	b.Write("book", "manifest", "manifest")
	b.Write("book", "route", "route")

	load := b.Activity("load", "Load Container", adept2.WithRole("terminal"))
	customs := b.Seq(
		b.Activity("declare", "Customs Declaration", adept2.WithRole("broker")),
		b.Activity("clear", "Customs Clearance", adept2.WithRole("broker")),
	)
	b.Read("declare", "manifest", "manifest", true)
	prep := b.Parallel(b.Seq(load), customs)

	// Route decision: sea (0) or rail (1), taken automatically from the
	// booked route.
	sea := b.Seq(
		b.Activity("ship", "Ship Leg", adept2.WithRole("carrier")),
		b.Activity("unload_port", "Unload at Port", adept2.WithRole("terminal")),
	)
	rail := b.Activity("rail", "Rail Leg", adept2.WithRole("carrier"))
	leg := b.Choice("route", sea, rail)

	deliver := b.Activity("deliver", "Deliver to Consignee", adept2.WithRole("carrier"))
	s, err := b.Build(b.Seq(book, prep, leg, deliver))
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
	dir, err := os.MkdirTemp("", "adept2-container-*")
	must(err)
	defer os.RemoveAll(dir)
	journal := filepath.Join(dir, "wal.ndjson")

	sys, err := adept2.Open(journal)
	must(err)
	// submit hands one command to the system and returns its result.
	submit := func(cmd adept2.Command) any {
		res, err := sys.Submit(context.Background(), cmd)
		must(err)
		return res
	}
	for _, u := range []*adept2.User{
		{ID: "dispatch", Roles: []string{"dispatcher"}},
		{ID: "quay", Roles: []string{"terminal"}},
		{ID: "broker1", Roles: []string{"broker"}},
		{ID: "capt", Roles: []string{"carrier"}},
		{ID: "sec", Roles: []string{"security"}},
	} {
		submit(&adept2.AddUser{User: u})
	}
	transport := buildTransport()
	submit(&adept2.Deploy{Schema: transport})

	// A small fleet in different states.
	var ids []string
	for i := 0; i < 6; i++ {
		inst := submit(&adept2.CreateInstance{TypeName: "container_transport"}).(*adept2.Instance)
		ids = append(ids, inst.ID())
		route := i % 2
		submit(&adept2.CompleteActivity{Instance: inst.ID(), Node: "book", User: "dispatch",
			Outputs: map[string]any{"manifest": fmt.Sprintf("M-%03d", i), "route": route}})
		if i >= 3 {
			// The late fleet already cleared customs and loaded.
			submit(&adept2.CompleteActivity{Instance: inst.ID(), Node: "load", User: "quay"})
			submit(&adept2.CompleteActivity{Instance: inst.ID(), Node: "declare", User: "broker1"})
			submit(&adept2.CompleteActivity{Instance: inst.ID(), Node: "clear", User: "broker1"})
		}
	}

	// New regulation: every container needs a security scan after loading,
	// before the transport leg — a type change affecting the whole fleet.
	deltaT := []adept2.Operation{
		&adept2.SerialInsert{
			Node: &adept2.Node{ID: "scan", Name: "Security Scan", Type: adept2.NodeActivity, Role: "security", Template: "security_scan"},
			Pred: "load",
			Succ: "and-join_2", // the join closing the preparation block
		},
	}
	// Resolve the actual join ID from the schema deployed above.
	for _, n := range transport.Nodes() {
		if n.Type == adept2.NodeANDJoin {
			deltaT[0].(*adept2.SerialInsert).Succ = n.ID
		}
	}

	fmt.Println("=== fleet-wide evolution: add security scan ===")
	report := submit(&adept2.Evolve{TypeName: "container_transport", Ops: deltaT}).(*adept2.MigrationReport)
	fmt.Print(adept2.FormatReport(report))

	// Instances that already passed loading keep running on V1; the rest
	// migrated and now require the scan.
	migrated, stayed := 0, 0
	for _, id := range ids {
		inst, _ := sys.Instance(id)
		if inst.Version() == 2 {
			migrated++
		} else {
			stayed++
		}
	}
	fmt.Printf("\nfleet: %d on V2 (scan required), %d finish on V1\n", migrated, stayed)

	// Durability: reopen the journal and verify the fleet state survived.
	must(sys.Close())
	recovered, err := adept2.Open(journal)
	must(err)
	defer recovered.Close()
	inst, ok := recovered.Instance(ids[0])
	if !ok {
		log.Fatal("fleet lost after recovery")
	}
	fmt.Printf("\nrecovered from journal: %s on version %d, biased=%v\n",
		inst.ID(), inst.Version(), inst.Biased())
	fmt.Print(adept2.RenderInstance(inst))
}
