package evolution_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"adept2/internal/change"
	"adept2/internal/compliance"
	"adept2/internal/engine"
	"adept2/internal/evolution"
	"adept2/internal/fault"
	"adept2/internal/graph"
	"adept2/internal/history"
	"adept2/internal/model"
	"adept2/internal/rollback"
	"adept2/internal/sim"
	"adept2/internal/state"
	"adept2/internal/storage"
	"adept2/internal/verify"
)

// The reference below is the algorithm the change paths ran before a
// change's trial became the change itself: materialize the instance's
// view (or clone the base), apply the ops to that copy, verify.Check it,
// and analyse the result a second time with graph.Analyze. It decides
// without touching the instance; the one-trial paths must agree with it.

// verdict is what the reference decides for one change: whether it is
// accepted, the fault kind (or migration outcome) it is refused with, and
// the schema and block analysis an accepted change leaves the instance.
type verdict struct {
	ok      bool
	kind    fault.Kind
	outcome evolution.Outcome
	view    model.SchemaView
	blocks  *graph.Info
}

var errReadOnly = errors.New("read only")

// readLocked runs fn under the instance lock without the worklist sync a
// successful Mutate ends with.
func readLocked(t *testing.T, inst *engine.Instance, fn func(mx *engine.Mutable)) {
	t.Helper()
	if err := inst.Mutate(func(mx *engine.Mutable) error { fn(mx); return errReadOnly }); err != errReadOnly {
		t.Fatal(err)
	}
}

func refused(kind fault.Kind) verdict { return verdict{kind: kind} }

func accepted(t *testing.T, s *model.Schema) verdict {
	t.Helper()
	info, err := graph.Analyze(s)
	if err != nil {
		t.Fatalf("reference: analyse the accepted schema: %v", err)
	}
	return verdict{ok: true, view: s, blocks: info}
}

func refAdHoc(t *testing.T, inst *engine.Instance, ops []change.Operation) (v verdict) {
	if len(ops) == 0 {
		return refused(fault.Invalid)
	}
	readLocked(t, inst, func(mx *engine.Mutable) {
		if mx.Done() {
			v = refused(fault.Completed)
			return
		}
		view, _ := mx.View()
		trial, err := storage.Materialize(view, view.SchemaID()+"+trial", view.TypeName(), view.Version())
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			if op.ApplyTo(trial) != nil {
				v = refused(fault.Invalid)
				return
			}
		}
		if !verify.Check(trial).OK() {
			v = refused(fault.NotCompliant)
			return
		}
		ctx := &change.Context{View: view, Marking: mx.Marking(), Stats: mx.Stats(), Store: mx.Store()}
		for _, op := range ops {
			if op.FastCompliance(ctx) != nil {
				v = refused(fault.NotCompliant)
				return
			}
		}
		v = accepted(t, trial)
	})
	return v
}

func refUndo(t *testing.T, inst *engine.Instance, count int) (v verdict) {
	readLocked(t, inst, func(mx *engine.Mutable) {
		if mx.Done() {
			v = refused(fault.Completed)
			return
		}
		ops := mx.BiasOps()
		if len(ops) == 0 {
			v = refused(fault.Conflict)
			return
		}
		keep := 0
		if count > 0 {
			keep = max(len(ops)-count, 0)
		}
		trial := mx.Base().Schema.Clone()
		for _, op := range ops[:keep] {
			if op.ApplyTo(trial) != nil {
				v = refused(fault.NotCompliant)
				return
			}
		}
		if !verify.Check(trial).OK() {
			v = refused(fault.NotCompliant)
			return
		}
		cur, _ := mx.Blocks()
		reduced := history.ReduceInto(cur, mx.History().Events(), nil)
		info, err := graph.Analyze(trial)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := compliance.Replay(trial, info, reduced); err != nil {
			v = refused(fault.NotCompliant)
			return
		}
		v = accepted(t, trial)
	})
	return v
}

func refMigrate(t *testing.T, inst *engine.Instance, to engine.Deployed, ops []change.Operation, mode evolution.CheckMode) (v verdict) {
	readLocked(t, inst, func(mx *engine.Mutable) {
		if mx.Done() {
			v.outcome = evolution.AlreadyFinished
			return
		}
		bias, err := change.AsOperations(mx.BiasOps())
		if err != nil {
			t.Fatal(err)
		}
		tChange := change.InsertedTemplates(ops)
		for tpl := range change.InsertedTemplates(bias) {
			if tChange[tpl] {
				v.outcome = evolution.SemanticConflict
				return
			}
		}
		target, info := to.Schema, to.Blocks
		if len(bias) > 0 {
			target = to.Schema.Clone()
			for _, op := range bias {
				if op.ApplyTo(target) != nil {
					v.outcome = evolution.StructuralConflict
					return
				}
			}
			if !verify.Check(target).OK() {
				v.outcome = evolution.StructuralConflict
				return
			}
			if info, err = graph.Analyze(target); err != nil {
				t.Fatal(err)
			}
		}
		if mode == evolution.ReplayCheck {
			cur, _ := mx.Blocks()
			if _, err := compliance.Replay(target, info, history.ReduceInto(cur, mx.History().Events(), nil)); err != nil {
				v.outcome = evolution.StateConflict
				return
			}
		} else {
			view, _ := mx.View()
			ctx := &change.Context{View: view, Marking: mx.Marking(), Stats: mx.Stats(), Store: mx.Store()}
			if compliance.CheckFast(ctx, ops) != nil {
				v.outcome = evolution.StateConflict
				return
			}
		}
		v = verdict{ok: true, outcome: evolution.Migrated, view: target, blocks: info}
	})
	return v
}

// viewSets renders a view as its sorted node, edge, data-element and
// data-edge sets.
func viewSets(v model.SchemaView) [4][]string {
	var out [4][]string
	for _, id := range v.NodeIDs() {
		n, _ := v.Node(id)
		out[0] = append(out[0], fmt.Sprintf("%+v", *n))
	}
	for _, e := range v.Edges() {
		out[1] = append(out[1], fmt.Sprintf("%+v", *e))
	}
	for _, d := range v.DataElements() {
		out[2] = append(out[2], fmt.Sprintf("%+v", *d))
	}
	for _, d := range v.DataEdges() {
		out[3] = append(out[3], fmt.Sprintf("%+v", *d))
	}
	for i := range out {
		slices.Sort(out[i])
	}
	return out
}

// blockSets renders an analysis as its sorted blocks, each by split, join
// and branches.
func blockSets(info *graph.Info) []string {
	var out []string
	for _, b := range info.Blocks() {
		branches := make([]string, 0, len(b.Branches))
		for _, br := range b.Branches {
			ids := make([]string, 0, br.Count())
			for n := br.Next(0); n >= 0; n = br.Next(n + 1) {
				ids = append(ids, info.Topology().ID(model.NodeIdx(n)))
			}
			slices.Sort(ids)
			branches = append(branches, fmt.Sprint(ids))
		}
		slices.Sort(branches)
		out = append(out, fmt.Sprintf("%s..%s %v", b.Split, b.Join, branches))
	}
	slices.Sort(out)
	return out
}

// state is everything a refused change must leave bit-identical.
type instState struct {
	footprint engine.StorageFootprint
	bias      []engine.BiasOp
	view      [4][]string
	marking   *state.MarkingExport
}

func stateOf(inst *engine.Instance) instState {
	snap, _ := inst.Snapshot()
	return instState{inst.Footprint(), inst.BiasOps(), viewSets(inst.View()), snap.Marking}
}

// differential drives random changes, undos and migrations over instances
// of random schemas and checks each against the reference.
type differential struct {
	t      *testing.T
	rng    *rand.Rand
	e      *engine.Engine
	name   string
	driver *sim.Driver
	seq    int
	counts map[string]int
}

// agree checks a production verdict against the reference's: accepted
// changes leave the reference's view and blocks, refused ones the kind it
// names and the instance as it was.
func (d *differential) agree(what string, inst *engine.Instance, ref verdict, err error, before instState) {
	t := d.t
	t.Helper()
	if (err == nil) != ref.ok {
		t.Fatalf("%s on %s: accepted=%t, the reference says %t (%v)", what, inst.ID(), err == nil, ref.ok, err)
	}
	if err != nil {
		if got := fault.KindOf(err); got != ref.kind {
			t.Fatalf("%s on %s: refused as kind %d, the reference says %d (%v)", what, inst.ID(), got, ref.kind, err)
		}
		d.unchanged(what, inst, before)
		d.counts[what+" refused"]++
		return
	}
	d.counts[what+" accepted"]++
	d.matches(what, inst, ref)
}

func (d *differential) unchanged(what string, inst *engine.Instance, before instState) {
	d.t.Helper()
	if after := stateOf(inst); !reflect.DeepEqual(after, before) {
		d.t.Fatalf("%s on %s was refused but changed the instance:\n before %+v\n after  %+v", what, inst.ID(), before, after)
	}
}

// matches holds an accepted change to the reference's view and blocks,
// the live overlay to the one RestoreInstance rebuilds from the recorded
// ops, and the instance to liveness: its work items name enabled nodes of
// its view, and a copy of it runs to completion with none left over.
func (d *differential) matches(what string, inst *engine.Instance, ref verdict) {
	t := d.t
	t.Helper()
	if got, want := viewSets(inst.View()), viewSets(ref.view); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s on %s: view\n %v\nthe reference's\n %v", what, inst.ID(), got, want)
	}
	var blocks *graph.Info
	readLocked(t, inst, func(mx *engine.Mutable) { blocks, _ = mx.Blocks() })
	if got, want := blockSets(blocks), blockSets(ref.blocks); !slices.Equal(got, want) {
		t.Fatalf("%s on %s: blocks %v, the reference's %v", what, inst.ID(), got, want)
	}
	d.itemsLive(what, inst, d.e)

	snap, bias := inst.Snapshot()
	scratch := engine.New(sim.Org())
	for _, s := range d.e.AllSchemas() {
		if err := scratch.Deploy(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := scratch.RestoreInstance(snap, bias); err != nil {
		t.Fatalf("%s on %s: restore: %v", what, inst.ID(), err)
	}
	restored, _ := scratch.Instance(inst.ID())
	if !reflect.DeepEqual(viewSets(restored.View()), viewSets(inst.View())) {
		t.Fatalf("%s on %s: the restored view differs from the live one", what, inst.ID())
	}
	live, _ := inst.View().(*storage.Overlay)
	back, _ := restored.View().(*storage.Overlay)
	if (live == nil) != (len(bias) == 0) || (back == nil) != (live == nil) {
		t.Fatalf("%s on %s: an overlay exactly while biased: live %t, restored %t, %d ops", what, inst.ID(), live != nil, back != nil, len(bias))
	}
	if live != nil && live.IndexBytes() != back.IndexBytes() {
		t.Fatalf("%s on %s: live overlay holds %d B of index, the restored one %d B", what, inst.ID(), live.IndexBytes(), back.IndexBytes())
	}
	if err := restored.Mutate(func(*engine.Mutable) error { return nil }); err != nil { // offers its work
		t.Fatal(err)
	}
	driver := sim.NewDriver(rand.New(rand.NewSource(d.rng.Int63())), scratch)
	if err := driver.RunToCompletion(restored); err != nil {
		t.Fatalf("%s on %s: the changed instance does not finish: %v", what, inst.ID(), err)
	}
	if items := scratch.Worklist().ItemsForInstance(inst.ID()); len(items) > 0 {
		t.Fatalf("%s on %s: %d work items outlive the finished instance", what, inst.ID(), len(items))
	}
}

// itemsLive checks that every work item of the instance names an
// activated or running node of its view.
func (d *differential) itemsLive(what string, inst *engine.Instance, e *engine.Engine) {
	d.t.Helper()
	v := inst.View()
	for _, it := range e.Worklist().ItemsForInstance(inst.ID()) {
		if _, ok := v.Node(it.Node); !ok {
			d.t.Fatalf("%s on %s: work item for %s, which the view lacks", what, inst.ID(), it.Node)
		}
		if s := inst.NodeState(it.Node); s != state.Activated && s != state.Running {
			d.t.Fatalf("%s on %s: work item for %s, which is %s", what, inst.ID(), it.Node, s)
		}
	}
}

func (d *differential) adHoc(inst *engine.Instance) {
	d.seq++
	d.apply(inst, sim.RandomAdHocOps(d.rng, inst.View(), d.seq))
}

// apply runs one ad-hoc change against the reference, and undoes an
// accepted one at once half the time.
func (d *differential) apply(inst *engine.Instance, ops []change.Operation) {
	before := stateOf(inst)
	ref := refAdHoc(d.t, inst, ops)
	err := change.ApplyAdHoc(inst, ops...)
	d.agree("AdHoc", inst, ref, err, before)
	if err != nil || d.rng.Intn(2) == 0 {
		return
	}
	// Undone at once: the view and the marking, skip stamps included,
	// are the pre-change ones.
	changed := stateOf(inst)
	ref = refUndo(d.t, inst, 1)
	err = rollback.UndoLast(inst)
	d.agree("UndoLast", inst, ref, err, changed)
	if err == nil {
		after := stateOf(inst)
		if !reflect.DeepEqual(after.view, before.view) || !reflect.DeepEqual(after.marking, before.marking) {
			d.t.Fatalf("AdHoc %v then UndoLast on %s does not return the pre-change view and marking", ops, inst.ID())
		}
	}
}

func (d *differential) undo(inst *engine.Instance, all bool) {
	count, what, undo := 1, "UndoLast", rollback.UndoLast
	if all {
		count, what, undo = -1, "UndoAll", rollback.UndoAll
	}
	before := stateOf(inst)
	ref := refUndo(d.t, inst, count)
	d.agree(what, inst, ref, undo(inst), before)
}

// evolve derives a random next version, deploys it and migrates the
// population in the mode, each instance against the reference.
func (d *differential) evolve(mode evolution.CheckMode) {
	t := d.t
	mgr := evolution.NewManager(d.e)
	from := d.e.LatestVersion(d.name)
	var ops []change.Operation
	var next *model.Schema
	for attempt := 0; next == nil; attempt++ {
		if attempt == 50 {
			return
		}
		d.seq++
		base, _ := d.e.Schema(d.name, from)
		ops = sim.RandomAdHocOps(d.rng, base, d.seq)
		next, _ = mgr.DeriveVersion(d.name, ops)
	}
	if err := d.e.Deploy(next); err != nil {
		t.Fatal(err)
	}
	to, _ := d.e.Deployed(d.name, next.Version())
	insts := d.e.InstancesOf(d.name, from)
	refs := make([]verdict, len(insts))
	befores := make([]instState, len(insts))
	for i, inst := range insts {
		refs[i] = refMigrate(t, inst, to, ops, mode)
		befores[i] = stateOf(inst)
	}
	report := mgr.MigrateAll(d.name, from, to, ops, evolution.Options{Mode: mode})
	for i, inst := range insts {
		res := report.Results[i]
		what := fmt.Sprintf("Evolve/%s (biased %t)", mode, res.Biased)
		if res.Outcome != refs[i].outcome {
			t.Fatalf("%s on %s: %s (%s), the reference says %s", what, inst.ID(), res.Outcome, res.Detail, refs[i].outcome)
		}
		d.counts[fmt.Sprintf("%s %s", what, res.Outcome)]++
		if res.Outcome == evolution.Migrated {
			d.matches(what, inst, refs[i])
		} else {
			d.unchanged(what, inst, befores[i])
		}
	}
}

// TestChangePathsAgreeWithReference runs AdHoc, UndoLast, UndoAll and
// Evolve in both check modes over instances of sim.RandomSchema types at
// random progress, and holds every verdict, view and block analysis to the
// reference, every refusal to leaving the instance as it was, and every
// acceptance to an instance that still runs to completion.
func TestChangePathsAgreeWithReference(t *testing.T) {
	schemas, steps := 16, 30
	if testing.Short() {
		schemas = 5
	}
	counts := map[string]int{}
	for trial := 0; trial < schemas; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 4242))
		name := fmt.Sprintf("diff%d", trial)
		e := engine.New(sim.Org())
		if err := e.Deploy(sim.RandomSchema(rng, name, sim.DefaultSchemaOpts())); err != nil {
			t.Fatal(err)
		}
		d := &differential{t: t, rng: rng, e: e, name: name, driver: sim.NewDriver(rng, e), counts: counts}
		var insts []*engine.Instance
		for i := 0; i < 6; i++ {
			inst, err := e.CreateInstance(name, 0)
			if err != nil {
				t.Fatal(err)
			}
			insts = append(insts, inst)
		}
		for _, mode := range []evolution.CheckMode{evolution.FastCheck, evolution.ReplayCheck} {
			for step := 0; step < steps; step++ {
				inst := insts[rng.Intn(len(insts))]
				switch r := rng.Intn(10); {
				case r < 5:
					d.adHoc(inst)
				case r < 7:
					d.undo(inst, false)
				case r < 8:
					d.undo(inst, true)
				default:
					if err := d.driver.Advance(inst, 1+rng.Intn(3)); err != nil {
						t.Fatal(err)
					}
				}
			}
			d.evolve(mode)
		}
	}
	// A case the random ops do not reach: undoing the last op of a change
	// leaves a bias that fails verification, a mandatory read whose writer
	// the undo removes.
	e := engine.New(sim.Org())
	if err := e.Deploy(sim.OnlineOrder()); err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	d := &differential{t: t, rng: rand.New(rand.NewSource(1)), e: e, name: "online_order", counts: map[string]int{}}
	d.apply(inst, []change.Operation{
		&change.AddDataElement{Element: &model.DataElement{ID: "note", Type: model.TypeString}},
		&change.AddDataEdge{Edge: &model.DataEdge{Activity: "collect_data", Element: "note", Access: model.Read, Parameter: "in", Mandatory: true}},
		&change.AddDataEdge{Edge: &model.DataEdge{Activity: "get_order", Element: "note", Access: model.Write, Parameter: "note"}},
	})
	d.undo(inst, false)
	if d.counts["UndoLast refused"] == 0 {
		t.Fatalf("undoing the writer was not refused: %v", d.counts)
	}

	// The full mix must reach both verdicts of every path.
	if testing.Short() {
		return
	}
	for _, k := range []string{"AdHoc accepted", "AdHoc refused", "UndoLast accepted", "UndoLast refused",
		"UndoAll accepted", "UndoAll refused",
		"Evolve/fast (biased true) migrated", "Evolve/replay (biased true) migrated",
		"Evolve/fast (biased true) structural-conflict", "Evolve/replay (biased true) structural-conflict"} {
		if counts[k] == 0 {
			t.Errorf("no %q in %v", k, counts)
		}
	}
	t.Logf("%v", counts)
}
