package change

import (
	"fmt"

	"adept2/internal/data"
	"adept2/internal/graph"
	"adept2/internal/model"
	"adept2/internal/state"
)

// ---------------------------------------------------------------------------
// SerialInsert
// ---------------------------------------------------------------------------

// SerialInsert inserts an activity between two directly connected nodes:
// the control edge Pred -> Succ is replaced by Pred -> Node -> Succ. This
// is the addActivity(S, act, Preds, Succs) of Fig. 1 with singleton node
// sets.
type SerialInsert struct {
	Node *model.Node
	Pred string
	Succ string
}

// OpName implements Operation.
func (o *SerialInsert) OpName() string { return "serial-insert" }

func (o *SerialInsert) String() string {
	return fmt.Sprintf("serialInsert(%s, %s, %s)", o.Node.ID, o.Pred, o.Succ)
}

// InsertedTemplate implements Operation.
func (o *SerialInsert) InsertedTemplate() string { return o.Node.Template }

// Precheck implements Operation.
func (o *SerialInsert) Precheck(v model.SchemaView) error {
	if o.Node == nil || o.Node.ID == "" {
		return fmt.Errorf("change: serial-insert: empty node")
	}
	if _, dup := v.Node(o.Node.ID); dup {
		return fmt.Errorf("change: serial-insert: node %q already exists", o.Node.ID)
	}
	if !v.HasEdge(model.EdgeKey{From: o.Pred, To: o.Succ, Type: model.EdgeControl}) {
		return fmt.Errorf("change: serial-insert: no control edge %s->%s", o.Pred, o.Succ)
	}
	return nil
}

// ApplyTo implements Operation.
func (o *SerialInsert) ApplyTo(v model.MutableView) error {
	if err := o.Precheck(v); err != nil {
		return err
	}
	if err := v.RemoveEdge(model.EdgeKey{From: o.Pred, To: o.Succ, Type: model.EdgeControl}); err != nil {
		return err
	}
	if err := v.AddNode(o.Node.Clone()); err != nil {
		return err
	}
	if err := v.AddEdge(&model.Edge{From: o.Pred, To: o.Node.ID, Type: model.EdgeControl}); err != nil {
		return err
	}
	return v.AddEdge(&model.Edge{From: o.Node.ID, To: o.Succ, Type: model.EdgeControl})
}

// FastCompliance implements Operation: the successor must not have started
// yet — unless the insertion point lies in a skipped region (the inserted
// activity is dead on arrival), or the inserted node is automatic (the
// relaxed trace equivalence lets the engine fire it retroactively, exactly
// as the replay criterion interleaves it virtually).
func (o *SerialInsert) FastCompliance(ctx *Context) error {
	if o.Node.CanAutoExecute() {
		return nil
	}
	succ, ok := ctx.node(o.Succ)
	if !ok || !ctx.startedAt(succ) {
		return nil
	}
	if pred, ok := ctx.node(o.Pred); ok && ctx.stateAt(pred) == state.Skipped {
		return nil
	}
	return stateConflict(o.String(), "successor %q already started", o.Succ)
}

// ---------------------------------------------------------------------------
// ParallelInsert
// ---------------------------------------------------------------------------

// ParallelInsert inserts an activity in parallel to the single-entry
// single-exit region spanned by From..To: a new AND block wraps the region
// and the activity becomes its second branch.
type ParallelInsert struct {
	Node *model.Node
	From string
	To   string
}

// OpName implements Operation.
func (o *ParallelInsert) OpName() string { return "parallel-insert" }

func (o *ParallelInsert) String() string {
	return fmt.Sprintf("parallelInsert(%s, %s..%s)", o.Node.ID, o.From, o.To)
}

// InsertedTemplate implements Operation.
func (o *ParallelInsert) InsertedTemplate() string { return o.Node.Template }

func (o *ParallelInsert) splitID() string { return o.Node.ID + "_psplit" }
func (o *ParallelInsert) joinID() string  { return o.Node.ID + "_pjoin" }

// region computes the SESE region From..To over control edges.
func (o *ParallelInsert) region(v model.SchemaView) (map[string]bool, error) {
	fwd := graph.Reachable(v, o.From, graph.Control, true)
	back := graph.Reachable(v, o.To, graph.Control, false)
	if !fwd[o.To] {
		return nil, fmt.Errorf("change: parallel-insert: %q does not reach %q", o.From, o.To)
	}
	region := make(map[string]bool)
	for id := range fwd {
		if back[id] {
			region[id] = true
		}
	}
	// Single entry (into From) and single exit (out of To).
	for id := range region {
		for _, e := range model.InControlEdges(v, id) {
			if !region[e.From] && id != o.From {
				return nil, fmt.Errorf("change: parallel-insert: region %s..%s is not SESE (edge %s enters it)", o.From, o.To, e)
			}
		}
		for _, e := range model.OutControlEdges(v, id) {
			if !region[e.To] && id != o.To {
				return nil, fmt.Errorf("change: parallel-insert: region %s..%s is not SESE (edge %s leaves it)", o.From, o.To, e)
			}
		}
	}
	return region, nil
}

// Precheck implements Operation.
func (o *ParallelInsert) Precheck(v model.SchemaView) error {
	if o.Node == nil || o.Node.ID == "" {
		return fmt.Errorf("change: parallel-insert: empty node")
	}
	for _, id := range []string{o.Node.ID, o.splitID(), o.joinID()} {
		if _, dup := v.Node(id); dup {
			return fmt.Errorf("change: parallel-insert: node %q already exists", id)
		}
	}
	from, ok := v.Node(o.From)
	if !ok {
		return fmt.Errorf("change: parallel-insert: unknown node %q", o.From)
	}
	to, ok := v.Node(o.To)
	if !ok {
		return fmt.Errorf("change: parallel-insert: unknown node %q", o.To)
	}
	if from.Type == model.NodeStart || to.Type == model.NodeEnd {
		return fmt.Errorf("change: parallel-insert: region must not include start or end")
	}
	_, err := o.region(v)
	return err
}

// ApplyTo implements Operation.
func (o *ParallelInsert) ApplyTo(v model.MutableView) error {
	if err := o.Precheck(v); err != nil {
		return err
	}
	// The edges to rewire, gathered before the first mutation: the
	// incoming control edges of From move to the split, the outgoing
	// control edges of To to the join.
	into, outOf := model.InControlEdges(v, o.From), model.OutControlEdges(v, o.To)
	split := &model.Node{ID: o.splitID(), Name: o.splitID(), Type: model.NodeANDSplit, Auto: true}
	join := &model.Node{ID: o.joinID(), Name: o.joinID(), Type: model.NodeANDJoin, Auto: true}
	if err := v.AddNode(split); err != nil {
		return err
	}
	if err := v.AddNode(join); err != nil {
		return err
	}
	if err := v.AddNode(o.Node.Clone()); err != nil {
		return err
	}
	for _, e := range into {
		if err := v.RemoveEdge(e.Key()); err != nil {
			return err
		}
		if err := v.AddEdge(&model.Edge{From: e.From, To: split.ID, Type: model.EdgeControl, Code: e.Code}); err != nil {
			return err
		}
	}
	for _, e := range outOf {
		if err := v.RemoveEdge(e.Key()); err != nil {
			return err
		}
		if err := v.AddEdge(&model.Edge{From: join.ID, To: e.To, Type: model.EdgeControl, Code: e.Code}); err != nil {
			return err
		}
	}
	for _, e := range []*model.Edge{
		{From: split.ID, To: o.From, Type: model.EdgeControl},
		{From: split.ID, To: o.Node.ID, Type: model.EdgeControl},
		{From: o.Node.ID, To: join.ID, Type: model.EdgeControl},
		{From: o.To, To: join.ID, Type: model.EdgeControl},
	} {
		if err := v.AddEdge(e); err != nil {
			return err
		}
	}
	return nil
}

// FastCompliance implements Operation. The new AND gateways are automatic
// and replay fires them retroactively, so a started region is fine; the
// binding constraint sits *behind* the region: once a control successor of
// To has started, the new AND join must have fired — which requires the
// inserted activity to have run. That is only reproducible when the
// activity is automatic or the region is dead.
func (o *ParallelInsert) FastCompliance(ctx *Context) error {
	if o.Node.CanAutoExecute() {
		return nil
	}
	to, ok := ctx.node(o.To)
	if !ok {
		// Outside the marking's binding: fall back to the view walk.
		for _, e := range model.OutControlEdges(ctx.View, o.To) {
			if ctx.started(e.To) && ctx.Marking.Node(o.To) != state.Skipped {
				return stateConflict(o.String(), "node %q behind the region already started", e.To)
			}
		}
		return nil
	}
	topo := ctx.topology()
	for _, ei := range topo.At(to).OutControlIdx() {
		s := topo.EdgeTarget(ei)
		if s != model.InvalidNode && ctx.startedAt(s) && ctx.stateAt(to) != state.Skipped {
			return stateConflict(o.String(), "node %q behind the region already started", topo.EdgeAt(ei).To)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// ConditionalInsert
// ---------------------------------------------------------------------------

// ConditionalInsert inserts an activity between Pred and Succ guarded by a
// condition: an XOR block whose decision element selects the activity
// (value 1) or an empty path (any other value).
type ConditionalInsert struct {
	Node            *model.Node
	Pred            string
	Succ            string
	DecisionElement string
}

// OpName implements Operation.
func (o *ConditionalInsert) OpName() string { return "conditional-insert" }

func (o *ConditionalInsert) String() string {
	return fmt.Sprintf("conditionalInsert(%s, %s, %s, if %s)", o.Node.ID, o.Pred, o.Succ, o.DecisionElement)
}

// InsertedTemplate implements Operation.
func (o *ConditionalInsert) InsertedTemplate() string { return o.Node.Template }

func (o *ConditionalInsert) splitID() string { return o.Node.ID + "_csplit" }
func (o *ConditionalInsert) joinID() string  { return o.Node.ID + "_cjoin" }
func (o *ConditionalInsert) nopID() string   { return o.Node.ID + "_cnop" }

// Precheck implements Operation.
func (o *ConditionalInsert) Precheck(v model.SchemaView) error {
	if o.Node == nil || o.Node.ID == "" {
		return fmt.Errorf("change: conditional-insert: empty node")
	}
	for _, id := range []string{o.Node.ID, o.splitID(), o.joinID(), o.nopID()} {
		if _, dup := v.Node(id); dup {
			return fmt.Errorf("change: conditional-insert: node %q already exists", id)
		}
	}
	if _, ok := v.DataElement(o.DecisionElement); !ok {
		return fmt.Errorf("change: conditional-insert: unknown decision element %q", o.DecisionElement)
	}
	if !v.HasEdge(model.EdgeKey{From: o.Pred, To: o.Succ, Type: model.EdgeControl}) {
		return fmt.Errorf("change: conditional-insert: no control edge %s->%s", o.Pred, o.Succ)
	}
	return nil
}

// ApplyTo implements Operation.
func (o *ConditionalInsert) ApplyTo(v model.MutableView) error {
	if err := o.Precheck(v); err != nil {
		return err
	}
	if err := v.RemoveEdge(model.EdgeKey{From: o.Pred, To: o.Succ, Type: model.EdgeControl}); err != nil {
		return err
	}
	split := &model.Node{ID: o.splitID(), Name: o.splitID(), Type: model.NodeXORSplit, Auto: true, DecisionElement: o.DecisionElement}
	join := &model.Node{ID: o.joinID(), Name: o.joinID(), Type: model.NodeXORJoin, Auto: true}
	nop := &model.Node{ID: o.nopID(), Name: o.nopID(), Type: model.NodeActivity, Auto: true, Template: "nop"}
	for _, n := range []*model.Node{split, join, nop, o.Node.Clone()} {
		if err := v.AddNode(n); err != nil {
			return err
		}
	}
	for _, e := range []*model.Edge{
		{From: o.Pred, To: split.ID, Type: model.EdgeControl},
		{From: split.ID, To: nop.ID, Type: model.EdgeControl, Code: 0},
		{From: split.ID, To: o.Node.ID, Type: model.EdgeControl, Code: 1},
		{From: nop.ID, To: join.ID, Type: model.EdgeControl},
		{From: o.Node.ID, To: join.ID, Type: model.EdgeControl},
		{From: join.ID, To: o.Succ, Type: model.EdgeControl},
	} {
		if err := v.AddEdge(e); err != nil {
			return err
		}
	}
	return nil
}

// FastCompliance implements Operation. The guarding XOR gateways are
// automatic: if the successor already started, replay fires the split
// retroactively with the decision element's value at that moment. The
// history stays reproducible when the decision routes around the new
// activity (code != 1) or the activity itself is automatic.
func (o *ConditionalInsert) FastCompliance(ctx *Context) error {
	if o.Node.CanAutoExecute() {
		return nil
	}
	succ, ok := ctx.node(o.Succ)
	if !ok || !ctx.startedAt(succ) {
		return nil
	}
	if pred, ok := ctx.node(o.Pred); ok && ctx.stateAt(pred) == state.Skipped {
		return nil
	}
	val, ok := ctx.Store.ReadAt(o.DecisionElement, ctx.startSeqAt(succ))
	if !ok {
		return nil // no value: the split clamps to the empty branch (code 0)
	}
	if iv, isInt := data.AsInt(val); !isInt || iv != 1 {
		return nil // decision routes around the inserted activity
	}
	return stateConflict(o.String(), "successor %q already started and the condition selects the inserted activity", o.Succ)
}

// ---------------------------------------------------------------------------
// DeleteActivity
// ---------------------------------------------------------------------------

// DeleteActivity removes an activity and reconnects its neighborhood. Sync
// edges attached to the activity are removed with it; its data edges are
// removed as well (the buildtime data-flow check on the changed schema
// rejects the deletion if a guaranteed supplier disappears).
type DeleteActivity struct {
	ID string
}

// OpName implements Operation.
func (o *DeleteActivity) OpName() string { return "delete-activity" }

func (o *DeleteActivity) String() string { return fmt.Sprintf("deleteActivity(%s)", o.ID) }

// InsertedTemplate implements Operation.
func (o *DeleteActivity) InsertedTemplate() string { return "" }

// Precheck implements Operation.
func (o *DeleteActivity) Precheck(v model.SchemaView) error {
	n, ok := v.Node(o.ID)
	if !ok {
		return fmt.Errorf("change: delete-activity: unknown node %q", o.ID)
	}
	if n.Type != model.NodeActivity {
		return fmt.Errorf("change: delete-activity: %q is a %s, only activities can be deleted", o.ID, n.Type)
	}
	if len(model.InControlEdges(v, o.ID)) != 1 || len(model.OutControlEdges(v, o.ID)) != 1 {
		return fmt.Errorf("change: delete-activity: %q has unexpected control edge cardinality", o.ID)
	}
	return nil
}

// ApplyTo implements Operation.
func (o *DeleteActivity) ApplyTo(v model.MutableView) error {
	if err := o.Precheck(v); err != nil {
		return err
	}
	pred, succ := model.InControlEdges(v, o.ID)[0].From, model.OutControlEdges(v, o.ID)[0].To
	// Gathered before the first mutation, so the operation reads one index.
	for _, e := range model.IncidentEdges(v, o.ID) {
		if err := v.RemoveEdge(e.Key()); err != nil {
			return err
		}
	}
	for _, de := range append([]*model.DataEdge(nil), v.DataEdgesOf(o.ID)...) {
		if err := v.RemoveDataEdge(de.Key()); err != nil {
			return err
		}
	}
	if err := v.RemoveNode(o.ID); err != nil {
		return err
	}
	if v.HasEdge(model.EdgeKey{From: pred, To: succ, Type: model.EdgeControl}) {
		return fmt.Errorf("change: delete-activity: reconnecting %s->%s would duplicate an edge", pred, succ)
	}
	return v.AddEdge(&model.Edge{From: pred, To: succ, Type: model.EdgeControl})
}

// FastCompliance implements Operation: a started activity cannot be
// deleted (its history entries would be orphaned); not-activated,
// activated, and skipped activities can.
func (o *DeleteActivity) FastCompliance(ctx *Context) error {
	if ctx.started(o.ID) {
		return stateConflict(o.String(), "activity %q already started", o.ID)
	}
	return nil
}

// ---------------------------------------------------------------------------
// MoveActivity
// ---------------------------------------------------------------------------

// MoveActivity shifts an activity to a new position: it is detached from
// its current context (like DeleteActivity, keeping data edges) and
// serially re-inserted between NewPred and NewSucc.
type MoveActivity struct {
	ID      string
	NewPred string
	NewSucc string
}

// OpName implements Operation.
func (o *MoveActivity) OpName() string { return "move-activity" }

func (o *MoveActivity) String() string {
	return fmt.Sprintf("moveActivity(%s, %s, %s)", o.ID, o.NewPred, o.NewSucc)
}

// InsertedTemplate implements Operation.
func (o *MoveActivity) InsertedTemplate() string { return "" }

// Precheck implements Operation.
func (o *MoveActivity) Precheck(v model.SchemaView) error {
	n, ok := v.Node(o.ID)
	if !ok {
		return fmt.Errorf("change: move-activity: unknown node %q", o.ID)
	}
	if n.Type != model.NodeActivity {
		return fmt.Errorf("change: move-activity: %q is a %s", o.ID, n.Type)
	}
	if o.ID == o.NewPred || o.ID == o.NewSucc {
		return fmt.Errorf("change: move-activity: %q cannot be its own neighbor", o.ID)
	}
	if len(model.InControlEdges(v, o.ID)) != 1 || len(model.OutControlEdges(v, o.ID)) != 1 {
		return fmt.Errorf("change: move-activity: %q has unexpected control edge cardinality", o.ID)
	}
	if _, ok := v.Node(o.NewPred); !ok {
		return fmt.Errorf("change: move-activity: unknown node %q", o.NewPred)
	}
	if _, ok := v.Node(o.NewSucc); !ok {
		return fmt.Errorf("change: move-activity: unknown node %q", o.NewSucc)
	}
	return nil
}

// ApplyTo implements Operation.
func (o *MoveActivity) ApplyTo(v model.MutableView) error {
	if err := o.Precheck(v); err != nil {
		return err
	}
	n, _ := v.Node(o.ID)
	moved := n.Clone()
	pred, succ := model.InControlEdges(v, o.ID)[0].From, model.OutControlEdges(v, o.ID)[0].To
	dataEdges := make([]*model.DataEdge, 0, 2)
	for _, de := range v.DataEdgesOf(o.ID) {
		dataEdges = append(dataEdges, de.Clone())
	}
	// Detach; the edges are gathered before the first mutation, so the
	// operation reads one index.
	for _, e := range model.IncidentEdges(v, o.ID) {
		if err := v.RemoveEdge(e.Key()); err != nil {
			return err
		}
	}
	for _, de := range dataEdges {
		if err := v.RemoveDataEdge(de.Key()); err != nil {
			return err
		}
	}
	if err := v.RemoveNode(o.ID); err != nil {
		return err
	}
	if v.HasEdge(model.EdgeKey{From: pred, To: succ, Type: model.EdgeControl}) {
		return fmt.Errorf("change: move-activity: reconnecting %s->%s would duplicate an edge", pred, succ)
	}
	if err := v.AddEdge(&model.Edge{From: pred, To: succ, Type: model.EdgeControl}); err != nil {
		return err
	}
	// Re-insert.
	ins := &SerialInsert{Node: moved, Pred: o.NewPred, Succ: o.NewSucc}
	if err := ins.ApplyTo(v); err != nil {
		return err
	}
	for _, de := range dataEdges {
		if err := v.AddDataEdge(de); err != nil {
			return err
		}
	}
	return nil
}

// FastCompliance implements Operation. An unstarted activity follows the
// serial-insert condition at its new position. A started activity may
// still be moved when the history remains reproducible at the target: the
// new predecessor completed before the activity started, and the activity
// completed before the new successor started.
func (o *MoveActivity) FastCompliance(ctx *Context) error {
	id, idOK := ctx.node(o.ID)
	pred, predOK := ctx.node(o.NewPred)
	succ, succOK := ctx.node(o.NewSucc)
	var n *model.Node
	if idOK {
		n = ctx.topology().At(id).Node()
	} else {
		n, _ = ctx.View.Node(o.ID)
	}
	auto := n != nil && n.CanAutoExecute()
	started := idOK && ctx.startedAt(id)
	if !started {
		if auto {
			return nil
		}
		if !succOK || !ctx.startedAt(succ) {
			return nil
		}
		if predOK && ctx.stateAt(pred) == state.Skipped {
			return nil
		}
		return stateConflict(o.String(), "new successor %q already started", o.NewSucc)
	}
	// Started activity: its recorded events must replay at the new
	// position.
	if !predOK || ctx.stateAt(pred) != state.Completed || ctx.completeSeqAt(pred) > ctx.startSeqAt(id) {
		return stateConflict(o.String(), "activity %q started before new predecessor %q completed", o.ID, o.NewPred)
	}
	if succOK && ctx.startedAt(succ) {
		cs := ctx.completeSeqAt(id)
		if cs == 0 || cs > ctx.startSeqAt(succ) {
			return stateConflict(o.String(), "new successor %q started before activity %q completed", o.NewSucc, o.ID)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// InsertSyncEdge / DeleteSyncEdge
// ---------------------------------------------------------------------------

// InsertSyncEdge adds a synchronization edge between activities of
// parallel branches (the insertSyncEdge of Fig. 1).
type InsertSyncEdge struct {
	From string
	To   string
}

// OpName implements Operation.
func (o *InsertSyncEdge) OpName() string { return "insert-sync-edge" }

func (o *InsertSyncEdge) String() string { return fmt.Sprintf("insertSyncEdge(%s, %s)", o.From, o.To) }

// InsertedTemplate implements Operation.
func (o *InsertSyncEdge) InsertedTemplate() string { return "" }

// Precheck implements Operation.
func (o *InsertSyncEdge) Precheck(v model.SchemaView) error {
	if _, ok := v.Node(o.From); !ok {
		return fmt.Errorf("change: insert-sync-edge: unknown node %q", o.From)
	}
	if _, ok := v.Node(o.To); !ok {
		return fmt.Errorf("change: insert-sync-edge: unknown node %q", o.To)
	}
	if v.HasEdge(model.EdgeKey{From: o.From, To: o.To, Type: model.EdgeSync}) {
		return fmt.Errorf("change: insert-sync-edge: edge %s~>%s already exists", o.From, o.To)
	}
	return nil
}

// ApplyTo implements Operation.
func (o *InsertSyncEdge) ApplyTo(v model.MutableView) error {
	if err := o.Precheck(v); err != nil {
		return err
	}
	return v.AddEdge(&model.Edge{From: o.From, To: o.To, Type: model.EdgeSync})
}

// FastCompliance implements Operation: if the target already started, the
// source must have been completed — or definitely skipped — before the
// target started; otherwise the recorded history could not have happened
// under the new constraint.
func (o *InsertSyncEdge) FastCompliance(ctx *Context) error {
	to, ok := ctx.node(o.To)
	if !ok || !ctx.startedAt(to) {
		return nil
	}
	startSeq := ctx.startSeqAt(to)
	if from, ok := ctx.node(o.From); ok {
		switch ctx.stateAt(from) {
		case state.Completed:
			if ctx.completeSeqAt(from) <= startSeq {
				return nil
			}
		case state.Skipped:
			if ctx.Marking.SkipSeqAt(from, ctx.Stats) <= startSeq {
				return nil
			}
		}
	}
	return stateConflict(o.String(), "target %q started before source %q was finished or skipped", o.To, o.From)
}

// DeleteSyncEdge removes a synchronization edge. Relaxing an ordering
// constraint never invalidates an existing history, so the operation is
// always state-compliant.
type DeleteSyncEdge struct {
	From string
	To   string
}

// OpName implements Operation.
func (o *DeleteSyncEdge) OpName() string { return "delete-sync-edge" }

func (o *DeleteSyncEdge) String() string { return fmt.Sprintf("deleteSyncEdge(%s, %s)", o.From, o.To) }

// InsertedTemplate implements Operation.
func (o *DeleteSyncEdge) InsertedTemplate() string { return "" }

// Precheck implements Operation.
func (o *DeleteSyncEdge) Precheck(v model.SchemaView) error {
	if !v.HasEdge(model.EdgeKey{From: o.From, To: o.To, Type: model.EdgeSync}) {
		return fmt.Errorf("change: delete-sync-edge: no sync edge %s~>%s", o.From, o.To)
	}
	return nil
}

// ApplyTo implements Operation.
func (o *DeleteSyncEdge) ApplyTo(v model.MutableView) error {
	if err := o.Precheck(v); err != nil {
		return err
	}
	return v.RemoveEdge(model.EdgeKey{From: o.From, To: o.To, Type: model.EdgeSync})
}

// FastCompliance implements Operation.
func (o *DeleteSyncEdge) FastCompliance(*Context) error { return nil }

// ---------------------------------------------------------------------------
// UpdateStaffAssignment
// ---------------------------------------------------------------------------

// UpdateStaffAssignment changes the role of an activity (an
// attribute-level change). Histories are oblivious to staff assignments,
// so the operation is always state-compliant; open work items are
// re-offered to the new role by the engine's worklist reconciliation.
type UpdateStaffAssignment struct {
	Activity string
	NewRole  string
}

// OpName implements Operation.
func (o *UpdateStaffAssignment) OpName() string { return "update-staff-assignment" }

func (o *UpdateStaffAssignment) String() string {
	return fmt.Sprintf("updateStaffAssignment(%s, %q)", o.Activity, o.NewRole)
}

// InsertedTemplate implements Operation.
func (o *UpdateStaffAssignment) InsertedTemplate() string { return "" }

// Precheck implements Operation.
func (o *UpdateStaffAssignment) Precheck(v model.SchemaView) error {
	n, ok := v.Node(o.Activity)
	if !ok {
		return fmt.Errorf("change: update-staff-assignment: unknown node %q", o.Activity)
	}
	if n.Type != model.NodeActivity {
		return fmt.Errorf("change: update-staff-assignment: %q is a %s", o.Activity, n.Type)
	}
	return nil
}

// ApplyTo implements Operation.
func (o *UpdateStaffAssignment) ApplyTo(v model.MutableView) error {
	if err := o.Precheck(v); err != nil {
		return err
	}
	n, _ := v.Node(o.Activity)
	repl := n.Clone()
	repl.Role = o.NewRole
	return v.ReplaceNode(repl)
}

// FastCompliance implements Operation.
func (o *UpdateStaffAssignment) FastCompliance(*Context) error { return nil }

// ---------------------------------------------------------------------------
// Data flow operations
// ---------------------------------------------------------------------------

// AddDataElement declares a new data element.
type AddDataElement struct {
	Element *model.DataElement
}

// OpName implements Operation.
func (o *AddDataElement) OpName() string { return "add-data-element" }

func (o *AddDataElement) String() string { return fmt.Sprintf("addDataElement(%s)", o.Element.ID) }

// InsertedTemplate implements Operation.
func (o *AddDataElement) InsertedTemplate() string { return "" }

// Precheck implements Operation.
func (o *AddDataElement) Precheck(v model.SchemaView) error {
	if o.Element == nil || o.Element.ID == "" {
		return fmt.Errorf("change: add-data-element: empty element")
	}
	if _, dup := v.DataElement(o.Element.ID); dup {
		return fmt.Errorf("change: add-data-element: element %q already exists", o.Element.ID)
	}
	return nil
}

// ApplyTo implements Operation.
func (o *AddDataElement) ApplyTo(v model.MutableView) error {
	if err := o.Precheck(v); err != nil {
		return err
	}
	return v.AddDataElement(o.Element.Clone())
}

// FastCompliance implements Operation.
func (o *AddDataElement) FastCompliance(*Context) error { return nil }

// AddDataEdge connects an activity parameter to a data element.
type AddDataEdge struct {
	Edge *model.DataEdge
}

// OpName implements Operation.
func (o *AddDataEdge) OpName() string { return "add-data-edge" }

func (o *AddDataEdge) String() string { return fmt.Sprintf("addDataEdge(%s)", o.Edge) }

// InsertedTemplate implements Operation.
func (o *AddDataEdge) InsertedTemplate() string { return "" }

// Precheck implements Operation.
func (o *AddDataEdge) Precheck(v model.SchemaView) error {
	if o.Edge == nil {
		return fmt.Errorf("change: add-data-edge: nil edge")
	}
	if _, ok := v.Node(o.Edge.Activity); !ok {
		return fmt.Errorf("change: add-data-edge: unknown activity %q", o.Edge.Activity)
	}
	if _, ok := v.DataElement(o.Edge.Element); !ok {
		return fmt.Errorf("change: add-data-edge: unknown element %q", o.Edge.Element)
	}
	return nil
}

// ApplyTo implements Operation.
func (o *AddDataEdge) ApplyTo(v model.MutableView) error {
	if err := o.Precheck(v); err != nil {
		return err
	}
	return v.AddDataEdge(o.Edge.Clone())
}

// FastCompliance implements Operation: a write edge requires the activity
// not to have *completed* (its recorded completion wrote no value for the
// new parameter; a merely running activity will supply it on completion);
// a mandatory read edge requires that the element already held a value
// when a started activity started.
func (o *AddDataEdge) FastCompliance(ctx *Context) error {
	act, actOK := ctx.node(o.Edge.Activity)
	if o.Edge.Access == model.Write {
		if actOK && ctx.completeSeqAt(act) > 0 {
			return stateConflict(o.String(), "activity %q already completed without writing the new parameter", o.Edge.Activity)
		}
		return nil
	}
	if !actOK || !ctx.startedAt(act) || !o.Edge.Mandatory {
		return nil
	}
	if _, ok := ctx.Store.ReadAt(o.Edge.Element, ctx.startSeqAt(act)); ok {
		return nil
	}
	return stateConflict(o.String(), "activity %q started before element %q held a value", o.Edge.Activity, o.Edge.Element)
}

// DeleteDataEdge removes a data edge. Removing a write edge of a completed
// activity would orphan its recorded output, so that case is a state
// conflict; read edges can always be removed.
type DeleteDataEdge struct {
	Key model.DataEdgeKey
}

// OpName implements Operation.
func (o *DeleteDataEdge) OpName() string { return "delete-data-edge" }

func (o *DeleteDataEdge) String() string {
	return fmt.Sprintf("deleteDataEdge(%s/%s/%s)", o.Key.Activity, o.Key.Parameter, o.Key.Element)
}

// InsertedTemplate implements Operation.
func (o *DeleteDataEdge) InsertedTemplate() string { return "" }

// Precheck implements Operation.
func (o *DeleteDataEdge) Precheck(v model.SchemaView) error {
	for _, de := range v.DataEdgesOf(o.Key.Activity) {
		if de.Key() == o.Key {
			return nil
		}
	}
	return fmt.Errorf("change: delete-data-edge: no such edge %v", o.Key)
}

// ApplyTo implements Operation.
func (o *DeleteDataEdge) ApplyTo(v model.MutableView) error {
	if err := o.Precheck(v); err != nil {
		return err
	}
	return v.RemoveDataEdge(o.Key)
}

// FastCompliance implements Operation.
func (o *DeleteDataEdge) FastCompliance(ctx *Context) error {
	if o.Key.Access != model.Write {
		return nil
	}
	if i, ok := ctx.node(o.Key.Activity); ok && ctx.completeSeqAt(i) > 0 {
		return stateConflict(o.String(), "activity %q already completed and wrote element %q", o.Key.Activity, o.Key.Element)
	}
	return nil
}
