package durable

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"adept2/internal/change"
	"adept2/internal/engine"
	"adept2/internal/evolution"
	"adept2/internal/model"
	"adept2/internal/sim"
	"adept2/internal/vfs"
)

// The two .json files under testdata/ were written by goldenState and
// goldenEvents at the commit BEFORE a history event's reads and writes
// became one sorted data.Values and the data store a sorted slice — while
// both were Go maps encoded by encoding/json. They are the compatibility
// contract of that change and of any later one to these codecs: a snapshot
// written then must restore now and re-encode to the same bytes, and the
// same instance built live must encode to them too. Regenerate them only
// from a commit whose format is the one to stay compatible with.
const (
	goldenStateFile     = "testdata/parent_snapshot.json"
	goldenEventsFile    = "testdata/parent_history_events.json"
	goldenContainerFile = "testdata/parent_container.snap"

	// goldenFinishedFile was written by goldenFinished at the commit before
	// a finished instance was sealed: the capture of a finished instance,
	// while it still held its marking and execution index. A sealed
	// instance derives both from its history, and must encode to the same
	// bytes.
	goldenFinishedFile = "testdata/parent_finished_snapshot.json"
)

// goldenEngine builds one seeded instance that exercises every member of
// the instance codec: reads (one and two parameters) and writes (string
// with HTML characters, int, float, bool), an XOR decision taken from a
// data element, a failed attempt, a deadline expiry, a loop iteration,
// timestamps, an open retry backoff and an ad-hoc bias.
func goldenEngine(t *testing.T) (*engine.Engine, *engine.Instance) {
	t.Helper()
	b := model.NewBuilder("golden")
	b.DataElement("route", model.TypeInt)
	b.DataElement("note", model.TypeString)
	b.DataElement("amount", model.TypeFloat)
	b.DataElement("again", model.TypeBool)
	init := b.Activity("init", "Init", model.WithRole("clerk"))
	b.Write("init", "route", "r")
	b.Write("init", "note", "n")
	b.Write("init", "amount", "amt")
	x := b.Activity("x", "X", model.WithRole("clerk"))
	y := b.Activity("y", "Y", model.WithRole("clerk"), model.WithDeadline(time.Minute))
	b.Read("y", "note", "memo", true)
	b.Read("y", "amount", "sum", false)
	work := b.Activity("work", "Work", model.WithRole("clerk"))
	b.Read("work", "note", "memo", false)
	b.Write("work", "again", "more")
	tail := b.Activity("tail", "Tail", model.WithRole("clerk"))
	s, err := b.Build(b.Seq(init, b.Choice("route", x, y), b.Loop(work, "again", 10), tail))
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(sim.Org())
	if err := e.Deploy(s); err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstance("golden", 0)
	if err != nil {
		t.Fatal(err)
	}
	id := inst.ID()
	const t0 = int64(1_700_000_000_000_000_000)
	do := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	do(e.StartActivityAt(id, "init", "ann", t0))
	do(e.CompleteActivity(id, "init", "ann", map[string]any{"r": 1, "n": "a<b>&\"c\"", "amt": 2.5}, engine.WithCompletedAt(t0+1)))
	do(e.StartActivityAt(id, "y", "cyn", t0+2)) // arms y's deadline
	do(e.TimeoutActivity(id, "y"))
	do(e.FailActivity(id, "y", "cyn", "printer on fire", 0, false))
	do(e.StartActivityAt(id, "y", "ann", t0+3))
	do(e.CompleteActivity(id, "y", "ann", nil, engine.WithCompletedAt(t0+4)))
	do(e.CompleteActivity(id, "work", "ann", map[string]any{"more": true}))
	do(e.CompleteActivity(id, "work", "cyn", map[string]any{"more": false}, engine.WithCompletedAt(t0+5)))
	do(change.ApplyAdHoc(inst, &change.SerialInsert{
		Node: &model.Node{ID: "audit", Name: "Audit", Type: model.NodeActivity, Role: "clerk"},
		Pred: "tail", Succ: s.EndID(),
	}))
	do(e.StartActivityAt(id, "tail", "ann", t0+6))
	do(e.FailActivity(id, "tail", "ann", "retry later", t0+1000, false)) // leaves a failure count and a retry backoff
	return e, inst
}

func goldenState(t *testing.T, e *engine.Engine) []byte {
	t.Helper()
	st := Stage(e, 17)
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func goldenEvents(t *testing.T, inst *engine.Instance) []byte {
	t.Helper()
	blob, err := json.Marshal(inst.HistoryEvents())
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestGoldenSnapshotCompatibility holds the instance codec to the bytes the
// parent of the sorted-slice change wrote (see goldenStateFile).
func TestGoldenSnapshotCompatibility(t *testing.T) {
	wantState, err := os.ReadFile(goldenStateFile)
	if err != nil {
		t.Fatal(err)
	}
	wantEvents, err := os.ReadFile(goldenEventsFile)
	if err != nil {
		t.Fatal(err)
	}

	// The same instance, built live, encodes to the parent's bytes.
	e, inst := goldenEngine(t)
	if got := goldenState(t, e); !bytes.Equal(got, wantState) {
		t.Errorf("live capture differs from the parent's snapshot:\n got %s\nwant %s", got, wantState)
	}
	if got := goldenEvents(t, inst); !bytes.Equal(got, wantEvents) {
		t.Errorf("HistoryEvents JSON differs from the parent's:\n got %s\nwant %s", got, wantEvents)
	}

	// The parent's snapshot restores, and what it restored to re-encodes
	// to the same bytes — through the decoder, RestoreInstance, Snapshot
	// and the encoder, with every number now a float64.
	var st SystemState
	if err := json.Unmarshal(wantState, &st); err != nil {
		t.Fatal(err)
	}
	re := engine.New(nil)
	if err := Restore(re, &st); err != nil {
		t.Fatal(err)
	}
	if got := goldenState(t, re); !bytes.Equal(got, wantState) {
		t.Errorf("restore + capture differs from the parent's snapshot:\n got %s\nwant %s", got, wantState)
	}
	rinst, ok := re.Instance(inst.ID())
	if !ok {
		t.Fatalf("instance %s missing after restore", inst.ID())
	}
	if got := goldenEvents(t, rinst); !bytes.Equal(got, wantEvents) {
		t.Errorf("restored HistoryEvents JSON differs from the parent's:\n got %s\nwant %s", got, wantEvents)
	}
	if n := rinst.HistoryLen(); n != len(rinst.HistoryEvents()) || n == 0 {
		t.Errorf("HistoryLen %d, %d events", n, len(rinst.HistoryEvents()))
	}
	// The restored instance keeps running where the parent left it.
	if err := re.RetryActivity(inst.ID(), "tail"); err != nil {
		t.Fatal(err)
	}
	for _, node := range []string{"tail", "audit"} {
		if err := re.CompleteActivity(inst.ID(), node, "ann", nil); err != nil {
			t.Fatal(err)
		}
	}
	if !rinst.Done() || rinst.LoopIterations(loopEndOf(t, rinst)) != 1 {
		t.Errorf("restored instance: done %t, loop iterations %d", rinst.Done(), rinst.LoopIterations(loopEndOf(t, rinst)))
	}
}

// goldenFinished builds one seeded instance that runs to its end: an XOR
// branch taken from a data element, a failed attempt, a loop iterated, an
// ad-hoc bias and one migration, and returns its engine and the instance.
func goldenFinished(t *testing.T) (*engine.Engine, *engine.Instance) {
	t.Helper()
	b := model.NewBuilder("finished")
	b.DataElement("route", model.TypeInt)
	b.DataElement("again", model.TypeBool)
	init := b.Activity("init", "Init", model.WithRole("clerk"))
	b.Write("init", "route", "r")
	x := b.Activity("x", "X", model.WithRole("clerk"))
	y := b.Activity("y", "Y", model.WithRole("clerk"))
	work := b.Activity("work", "Work", model.WithRole("clerk"))
	b.Write("work", "again", "more")
	tail := b.Activity("tail", "Tail", model.WithRole("clerk"))
	s, err := b.Build(b.Seq(init, b.Choice("route", x, y), b.Loop(work, "again", 10), tail))
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(sim.Org())
	if err := e.Deploy(s); err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstance("finished", 0)
	if err != nil {
		t.Fatal(err)
	}
	id := inst.ID()
	const t0 = int64(1_700_000_000_000_000_000)
	do := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	do(e.StartActivityAt(id, "init", "ann", t0))
	do(e.CompleteActivity(id, "init", "ann", map[string]any{"r": 0}, engine.WithCompletedAt(t0+1)))
	do(e.StartActivityAt(id, "x", "cyn", t0+2))
	do(e.FailActivity(id, "x", "cyn", "paper jam", 0, false))
	do(e.StartActivityAt(id, "x", "ann", t0+3))
	do(e.CompleteActivity(id, "x", "ann", nil, engine.WithCompletedAt(t0+4)))
	do(e.CompleteActivity(id, "work", "ann", map[string]any{"more": true}))
	do(e.CompleteActivity(id, "work", "cyn", map[string]any{"more": false}, engine.WithCompletedAt(t0+5)))
	do(change.ApplyAdHoc(inst, &change.SerialInsert{
		Node: &model.Node{ID: "audit", Name: "Audit", Type: model.NodeActivity, Role: "clerk"},
		Pred: loopEndOf(t, inst), Succ: "tail",
	}))
	rep, err := evolution.NewManager(e).Evolve("finished", []change.Operation{&change.SerialInsert{
		Node: &model.Node{ID: "archive", Name: "Archive", Type: model.NodeActivity, Role: "clerk"},
		Pred: "tail", Succ: s.EndID(),
	}}, evolution.Options{})
	do(err)
	if rep.Count(evolution.Migrated) != 1 {
		t.Fatalf("migration report %+v, want the instance migrated", rep.Results)
	}
	for i, node := range []string{"audit", "tail", "archive"} {
		do(e.StartActivityAt(id, node, "ann", t0+6+int64(2*i)))
		do(e.CompleteActivity(id, node, "ann", nil, engine.WithCompletedAt(t0+7+int64(2*i))))
	}
	if !inst.Done() {
		t.Fatal("the finished golden's instance did not finish")
	}
	return e, inst
}

// TestGoldenFinishedSnapshot holds the capture of a finished instance to
// the bytes the parent of the seal wrote (see goldenFinishedFile): built
// live and sealed, and restored from those bytes.
func TestGoldenFinishedSnapshot(t *testing.T) {
	want, err := os.ReadFile(goldenFinishedFile)
	if err != nil {
		t.Fatal(err)
	}
	e, inst := goldenFinished(t)
	if got := goldenState(t, e); !bytes.Equal(got, want) {
		t.Errorf("live capture differs from the parent's snapshot:\n got %s\nwant %s", got, want)
	}
	var st SystemState
	if err := json.Unmarshal(want, &st); err != nil {
		t.Fatal(err)
	}
	re := engine.New(nil)
	if err := Restore(re, &st); err != nil {
		t.Fatal(err)
	}
	if got := goldenState(t, re); !bytes.Equal(got, want) {
		t.Errorf("restore + capture differs from the parent's snapshot:\n got %s\nwant %s", got, want)
	}
	rinst, ok := re.Instance(inst.ID())
	if !ok || !rinst.Done() {
		t.Fatalf("instance %s after restore: present %t", inst.ID(), ok)
	}
}

// TestSnapshotSkipStampsAreIgnored: a snapshot's skip stamps are derived
// from the execution index when written and ignored when read, so an
// older snapshot whose stamps disagree restores to the instance the index
// describes. Every stamp of a captured state is perturbed; the restored
// instance gives the unperturbed sync-edge verdicts for every node pair
// and re-captures to the unperturbed bytes.
func TestSnapshotSkipStampsAreIgnored(t *testing.T) {
	e, inst := goldenEngine(t)
	want := goldenState(t, e)
	st := Stage(e, 17)
	for _, is := range st.Instances {
		for i := range is.Marking.Nodes {
			is.Marking.Nodes[i].SkipSeq = 1000 + int32(i)
		}
	}
	re := engine.New(nil)
	if err := Restore(re, st); err != nil {
		t.Fatal(err)
	}
	if got := goldenState(t, re); !bytes.Equal(got, want) {
		t.Errorf("restore of perturbed stamps + capture differs:\n got %s\nwant %s", got, want)
	}
	rinst, ok := re.Instance(inst.ID())
	if !ok {
		t.Fatalf("instance %s missing after restore", inst.ID())
	}
	ctx := func(inst *engine.Instance) *change.Context {
		return &change.Context{View: inst.View(), Marking: inst.MarkingSnapshot(), Stats: inst.StatsSnapshot(), Store: inst.DataSnapshot()}
	}
	live, restored := ctx(inst), ctx(rinst)
	ids := inst.View().NodeIDs()
	for _, from := range ids {
		for _, to := range ids {
			op := &change.InsertSyncEdge{From: from, To: to}
			if w, g := op.FastCompliance(live), op.FastCompliance(restored); (w == nil) != (g == nil) {
				t.Errorf("%s: live %v, restored %v", op, w, g)
			}
		}
	}
}

// TestGoldenContainer: goldenContainerFile is the snapshot file the build
// before SystemState became the one state type wrote from goldenState
// (Stage at seq 17, then SnapshotStore.Write). Load returns its payload
// as the golden bytes, and ReadSnapshotInfo reports its two sizes.
func TestGoldenContainer(t *testing.T) {
	wantState, err := os.ReadFile(goldenStateFile)
	if err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(goldenContainerFile)
	if err != nil {
		t.Fatal(err)
	}
	dir, name := filepath.Split(goldenContainerFile)
	st, err := ViewStore(vfs.OS(), dir).Load(ManifestEntry{File: name, Seq: 17})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := json.Marshal(st); err != nil || !bytes.Equal(got, wantState) {
		t.Errorf("loaded state differs from the parent's snapshot (%v):\n got %s\nwant %s", err, got, wantState)
	}
	info, err := ReadSnapshotInfo(vfs.OS(), goldenContainerFile)
	if err != nil {
		t.Fatal(err)
	}
	stored := len(file) - (bytes.IndexByte(file, '\n') + 1)
	if info.Seq != 17 || info.RawLen != len(wantState) || info.StoredLen != stored {
		t.Errorf("info %+v, want seq 17, raw %d B, stored %d B", info, len(wantState), stored)
	}
}

func loopEndOf(t *testing.T, inst *engine.Instance) string {
	t.Helper()
	for _, id := range inst.View().NodeIDs() {
		if n, ok := inst.View().Node(id); ok && n.Type == model.NodeLoopEnd {
			return id
		}
	}
	t.Fatal("no loop end")
	return ""
}
