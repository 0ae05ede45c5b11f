// Command ehealth models the e-health scenario the paper's prototype was
// deployed for: a cyclic treatment process where exceptional situations
// demand ad-hoc deviations per patient — an extra lab test inserted for
// one patient, a skipped examination for another — without losing the
// system's correctness guarantees.
package main

import (
	"context"
	"fmt"
	"log"

	"adept2"
)

func buildTreatment() *adept2.Schema {
	b := adept2.NewBuilder("treatment")
	b.DataElement("diagnosis", adept2.TypeString)
	b.DataElement("cured", adept2.TypeBool)

	admit := b.Activity("admit", "Admit Patient", adept2.WithRole("nurse"))
	anamnesis := b.Activity("anamnesis", "Anamnesis", adept2.WithRole("physician"))
	b.Write("anamnesis", "diagnosis", "diagnosis")

	// Treatment cycle: examine and treat run against lab work in
	// parallel; the physician decides after each round whether to repeat.
	examine := b.Activity("examine", "Examine", adept2.WithRole("physician"))
	b.Read("examine", "diagnosis", "diagnosis", true)
	treat := b.Activity("treat", "Treat", adept2.WithRole("physician"))
	lab := b.Activity("lab_basic", "Basic Lab Panel", adept2.WithRole("lab"))
	round := b.Parallel(b.Seq(examine, treat), lab)
	evaluate := b.Activity("evaluate", "Evaluate Round", adept2.WithRole("physician"))
	b.Write("evaluate", "cured", "cured")
	cycle := b.Loop(b.Seq(round, evaluate), "", 10)

	discharge := b.Activity("discharge", "Discharge", adept2.WithRole("nurse"))
	s, err := b.Build(b.Seq(admit, anamnesis, cycle, discharge))
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

func loopEndOf(s *adept2.Schema) string {
	for _, n := range s.Nodes() {
		if n.Type == adept2.NodeLoopEnd {
			return n.ID
		}
	}
	log.Fatal("no loop end")
	return ""
}

func main() {
	schema := buildTreatment()
	loopEnd := loopEndOf(schema)

	ctx := context.Background()
	sys := adept2.New()
	// submit hands one command to the system and returns its result.
	submit := func(cmd adept2.Command) any {
		res, err := sys.Submit(ctx, cmd)
		must(err)
		return res
	}
	for _, u := range []*adept2.User{
		{ID: "nina", Roles: []string{"nurse"}},
		{ID: "dr_may", Roles: []string{"physician"}},
		{ID: "lu", Roles: []string{"lab"}},
	} {
		submit(&adept2.AddUser{User: u})
	}
	submit(&adept2.Deploy{Schema: schema})

	// Patient A follows the standard process for one round.
	pa := submit(&adept2.CreateInstance{TypeName: "treatment"}).(*adept2.Instance)
	submit(&adept2.CompleteActivity{Instance: pa.ID(), Node: "admit", User: "nina"})
	submit(&adept2.CompleteActivity{Instance: pa.ID(), Node: "anamnesis", User: "dr_may", Outputs: map[string]any{"diagnosis": "pneumonia"}})

	// Exceptional situation: patient A additionally needs an MRT scan in
	// parallel with this round's basic lab panel — an ad-hoc deviation for
	// this single instance.
	submit(&adept2.AdHoc{Instance: pa.ID(), Ops: []adept2.Operation{&adept2.ParallelInsert{
		Node: &adept2.Node{ID: "mrt_scan", Name: "MRT Scan", Type: adept2.NodeActivity, Role: "lab", Template: "mrt"},
		From: "lab_basic",
		To:   "lab_basic",
	}}})
	fmt.Println("patient A deviates from the template:")
	fmt.Print(adept2.RenderInstance(pa))

	// The round proceeds, including the extra scan.
	submit(&adept2.CompleteActivity{Instance: pa.ID(), Node: "examine", User: "dr_may"})
	submit(&adept2.CompleteActivity{Instance: pa.ID(), Node: "treat", User: "dr_may"})
	submit(&adept2.CompleteActivity{Instance: pa.ID(), Node: "lab_basic", User: "lu"})
	submit(&adept2.CompleteActivity{Instance: pa.ID(), Node: "mrt_scan", User: "lu"})
	submit(&adept2.CompleteActivity{Instance: pa.ID(), Node: "evaluate", User: "dr_may", Outputs: map[string]any{"cured": false}})
	// Not cured: iterate the treatment cycle once more.
	again, stop := true, false
	submit(&adept2.CompleteActivity{Instance: pa.ID(), Node: loopEnd, Again: &again})
	fmt.Printf("\npatient A entered round 2 (loop iterations: %d)\n", pa.LoopIterations(loopEnd))
	submit(&adept2.CompleteActivity{Instance: pa.ID(), Node: "examine", User: "dr_may"})
	submit(&adept2.CompleteActivity{Instance: pa.ID(), Node: "treat", User: "dr_may"})
	submit(&adept2.CompleteActivity{Instance: pa.ID(), Node: "lab_basic", User: "lu"})
	submit(&adept2.CompleteActivity{Instance: pa.ID(), Node: "mrt_scan", User: "lu"})
	submit(&adept2.CompleteActivity{Instance: pa.ID(), Node: "evaluate", User: "dr_may", Outputs: map[string]any{"cured": true}})
	submit(&adept2.CompleteActivity{Instance: pa.ID(), Node: loopEnd, Again: &stop})
	submit(&adept2.CompleteActivity{Instance: pa.ID(), Node: "discharge", User: "nina"})
	fmt.Printf("patient A discharged: %v\n\n", pa.Done())

	// Patient B: the basic lab panel is not medically indicated; the
	// physician deletes it for this instance. The engine checks that no
	// data dependency breaks.
	pb := submit(&adept2.CreateInstance{TypeName: "treatment"}).(*adept2.Instance)
	submit(&adept2.CompleteActivity{Instance: pb.ID(), Node: "admit", User: "nina"})
	submit(&adept2.CompleteActivity{Instance: pb.ID(), Node: "anamnesis", User: "dr_may", Outputs: map[string]any{"diagnosis": "sprain"}})
	submit(&adept2.AdHoc{Instance: pb.ID(), Ops: []adept2.Operation{&adept2.DeleteActivity{ID: "lab_basic"}}})
	fmt.Println("patient B skips the lab panel:")
	fmt.Print(adept2.RenderInstance(pb))

	// Attempting to delete an already-started activity is rejected — the
	// guarantee that makes ad-hoc changes safe.
	submit(&adept2.StartActivity{Instance: pb.ID(), Node: "examine", User: "dr_may"})
	if _, err := sys.Submit(ctx, &adept2.AdHoc{Instance: pb.ID(), Ops: []adept2.Operation{&adept2.DeleteActivity{ID: "examine"}}}); err != nil {
		fmt.Printf("\nrejected as expected: %v\n", err)
	} else {
		log.Fatal("deleting a running activity must be rejected")
	}
}
