package engine

import (
	"fmt"
	"sort"

	"adept2/internal/bitset"
	"adept2/internal/data"
	"adept2/internal/fault"
	"adept2/internal/history"
	"adept2/internal/model"
	"adept2/internal/state"
	"adept2/internal/worklist"
)

// CompleteOption customizes activity completion. It is a plain value — a
// kind and its argument — so building and applying one allocates nothing.
type CompleteOption struct {
	kind completeOptKind
	arg  int64
}

type completeOptKind uint8

const (
	optDecision completeOptKind = iota + 1
	optLoopAgain
	optCompletedAt
)

type completeOpts struct {
	decision    int
	decisionSet bool
	again       bool
	againSet    bool
	at          int64
}

func (co *completeOpts) apply(o CompleteOption) {
	switch o.kind {
	case optDecision:
		co.decision, co.decisionSet = int(o.arg), true
	case optLoopAgain:
		co.again, co.againSet = o.arg != 0, true
	case optCompletedAt:
		co.at = o.arg
	}
}

// WithDecision supplies the selection code for completing an XOR split
// manually.
func WithDecision(code int) CompleteOption {
	return CompleteOption{kind: optDecision, arg: int64(code)}
}

// WithLoopAgain supplies the iteration decision for completing a loop end
// manually.
func WithLoopAgain(again bool) CompleteOption {
	o := CompleteOption{kind: optLoopAgain}
	if again {
		o.arg = 1
	}
	return o
}

// WithCompletedAt stamps the completion timestamp (unix nanos, recorded
// on the journaled complete command so replay reproduces it) onto the
// Completed history event. Zero leaves the event unstamped.
func WithCompletedAt(at int64) CompleteOption {
	return CompleteOption{kind: optCompletedAt, arg: at}
}

// startLocked validates and performs the start of a node. A non-zero at
// (unix nanos, recorded on the journaled start command so replay re-arms
// identically) arms the node's relative deadline.
func (inst *Instance) startLocked(node, user string, at int64) error {
	var buf [stepValues]data.Binding
	st, reads, err := inst.checkStartLocked(node, user, buf[:0])
	if err != nil {
		return err
	}
	return inst.applyStartLocked(st, reads, at)
}

// stepValues is the room of the stack array a step gathers its reads or
// writes in, which Append copies; a node with more edges of one mode spills.
const stepValues = 4

// pendingStart is a start checkStartLocked accepted: the node and the user
// its work item keeps. The input values it reads are returned beside it,
// not in it: the worklist keeps the user, and escape analysis, which does
// not tell a struct's fields apart, would move the reads to the heap too.
type pendingStart struct {
	n    *model.Node
	user string
}

// checkStartLocked validates the start of a node without changing
// anything, and gathers its reads into buf's array.
func (inst *Instance) checkStartLocked(node, user string, buf data.Values) (st pendingStart, reads data.Values, err error) {
	if inst.done {
		return st, nil, fault.Tagf(fault.Completed, "engine: start %s/%s: instance is completed", inst.id, node)
	}
	if inst.suspended && user != "" {
		return st, nil, fault.Tagf(fault.Suspended, "engine: start %s/%s: instance is suspended", inst.id, node)
	}
	v, _ := inst.viewLocked()
	n, ok := v.Node(node)
	if !ok {
		return st, nil, fault.Tagf(fault.NotFound, "engine: start %s/%s: no such node", inst.id, node)
	}
	node = n.ID // what the instance keeps is the schema's string, not the command's
	if got := inst.run.marking.Node(node); got != state.Activated {
		return st, nil, fault.Tagf(fault.Conflict, "engine: start %s/%s: node is %s, not activated", inst.id, node, got)
	}
	if !n.Auto && n.Role != "" {
		if user == "" {
			return st, nil, fault.Tagf(fault.Denied, "engine: start %s/%s: activity requires a user with role %q", inst.id, node, n.Role)
		}
		id, ok := inst.eng.org.HasRole(user, n.Role)
		if !ok {
			return st, nil, fault.Tagf(fault.Denied, "engine: start %s/%s: user %q lacks role %q", inst.id, node, user, n.Role)
		}
		user = id // what the work item keeps is the org model's string, not the command's
	}
	reads, err = inst.gatherReadsLocked(v, n, buf)
	return pendingStart{n: n, user: user}, reads, err
}

// applyStartLocked performs a start checkStartLocked accepted.
func (inst *Instance) applyStartLocked(st pendingStart, reads data.Values, at int64) error {
	n, node := st.n, st.n.ID
	if err := inst.run.marking.Start(node); err != nil {
		return err
	}
	// The event is read by Append, not kept: it stays on the stack.
	e := inst.appendLocked(&history.Event{Kind: history.Started, Node: node, User: st.user, Values: reads, Decision: -1, At: at})
	inst.run.stats.OnStart(node, int(e.Seq))
	// A fresh start clears any pending retry/compensation left from a
	// prior failed attempt and arms the activity's deadline.
	x := inst.run.exceptions[node]
	x.RetryAt, x.Pending = 0, false
	if at != 0 && n.Deadline > 0 {
		x.Deadline, x.Armed = at+n.Deadline, true
	}
	inst.run.setException(node, x)
	if !n.Auto && n.Type == model.NodeActivity {
		// Best effort: the item exists unless the node was activated by
		// adaptation inside a Mutate (reconciled afterwards).
		_ = inst.eng.wl.MarkStarted(inst.id, node, st.user)
	}
	return nil
}

// appendLocked appends e to the history. The first binding an instance
// records sizes its binding list for the view's data edges.
func (inst *Instance) appendLocked(e *history.Event) *history.Event {
	if len(e.Values) > 0 {
		v, _ := inst.viewLocked()
		inst.hist.ReserveBindings(v.Topology().NumDataEdges())
	}
	return inst.hist.Append(e)
}

// gatherReadsLocked collects the input parameter values of a node into
// reads' array and enforces mandatory supplies.
func (inst *Instance) gatherReadsLocked(v model.SchemaView, n *model.Node, reads data.Values) (data.Values, error) {
	for _, de := range v.DataEdgesOf(n.ID) {
		if de.Access != model.Read {
			continue
		}
		val, ok := inst.store.Read(de.Element)
		if !ok {
			if de.Mandatory {
				return nil, fault.Tagf(fault.Invalid, "engine: start %s/%s: mandatory input %q (element %q) has no value", inst.id, n.ID, de.Parameter, de.Element)
			}
			if elem, ok := v.DataElement(de.Element); ok {
				val = elem.Type.ZeroValue()
			}
		}
		reads = reads.With(de.Parameter, val)
	}
	return reads, nil
}

// completeEntryLocked is the user-facing completion path: it completes
// the node and advances the instance.
func (inst *Instance) completeEntryLocked(node, user string, outputs map[string]any, opts ...CompleteOption) error {
	if inst.done {
		return fault.Tagf(fault.Completed, "engine: complete %s/%s: instance is completed", inst.id, node)
	}
	if inst.suspended {
		return fault.Tagf(fault.Suspended, "engine: complete %s/%s: instance is suspended", inst.id, node)
	}
	var co completeOpts
	for _, o := range opts {
		co.apply(o)
	}
	if err := inst.completeLocked(node, user, outputs, co); err != nil {
		return err
	}
	return inst.cascadeLocked()
}

// completeLocked completes a node without running the automatic cascade,
// starting it first when it is merely activated. Everything that can
// refuse the start or the completion is checked before either changes
// anything, so a refused completion leaves an activated node activated.
func (inst *Instance) completeLocked(node, user string, outputs map[string]any, co completeOpts) error {
	v, blocks := inst.viewLocked()
	n, ok := v.Node(node)
	if !ok {
		return fault.Tagf(fault.NotFound, "engine: complete %s/%s: no such node", inst.id, node)
	}
	node = n.ID // as in checkStartLocked
	var readBuf, writeBuf [stepValues]data.Binding
	var st pendingStart
	var reads data.Values
	starting := inst.run.marking.Node(node) == state.Activated
	if starting {
		var err error
		if st, reads, err = inst.checkStartLocked(node, user, readBuf[:0]); err != nil {
			return err
		}
	} else if got := inst.run.marking.Node(node); got != state.Running {
		return fault.Tagf(fault.Conflict, "engine: complete %s/%s: node is %s, not running", inst.id, node, got)
	}

	// Routing decisions.
	decision := -1
	if n.Type == model.NodeXORSplit {
		var err error
		decision, err = inst.xorDecisionLocked(v, n, co)
		if err != nil {
			return err
		}
		if decision != int(int32(decision)) {
			// The history and the execution index record a decision in 32 bits.
			return fault.Tagf(fault.Invalid, "engine: complete %s/%s: selection code %d does not fit 32 bits", inst.id, node, decision)
		}
	}
	again := false
	if n.Type == model.NodeLoopEnd {
		again = inst.loopDecisionLocked(n, co)
	}

	// Output parameters -> data element writes.
	writes, err := inst.collectWritesLocked(v, n, outputs, writeBuf[:0])
	if err != nil {
		return err
	}

	if starting {
		// Implicit start: no deadline is armed — the completion follows
		// immediately, so an expiry could never fire.
		if err := inst.applyStartLocked(st, reads, 0); err != nil {
			return err
		}
	}
	e := inst.appendLocked(&history.Event{
		Kind:     history.Completed,
		Node:     node,
		User:     user,
		Decision: int32(decision),
		Again:    again,
		Values:   writes,
		At:       co.at,
	})
	inst.run.stats.OnComplete(node, int(e.Seq), decision)
	for _, w := range writes {
		inst.store.Write(w.Name, w.Value, node, int(e.Seq))
	}

	if n.Type == model.NodeLoopEnd && again {
		blk, ok := blocks.ByJoin(node)
		if !ok {
			return fmt.Errorf("engine: complete %s/%s: loop end has no block", inst.id, node)
		}
		region, topo := blk.Region(), v.Topology()
		inst.run.iterate(topo, node, region)
		state.ResetLoop(v, &inst.run.marking, region)
		inst.clearExceptionLocked(node)
		for i := region.Next(0); i >= 0; i = region.Next(i + 1) {
			if id := topo.ID(model.NodeIdx(i)); id != node {
				inst.clearExceptionLocked(id)
				inst.eng.wl.Withdraw(inst.id, id)
			}
		}
		return nil
	}

	if err := inst.run.marking.Complete(v, node, decision); err != nil {
		return err
	}
	inst.clearExceptionLocked(node)
	inst.eng.wl.Withdraw(inst.id, node)
	return nil
}

// iterate records that the loop ending at node iterates over region, a
// bitset over topo's NodeIdx space: the region's execution records are
// purged, the loop's count rises, and the nested loops restart theirs. The
// live completion and a sealed instance's derivation (derivedLocked) share
// it.
func (r *running) iterate(topo *model.Topology, node string, region bitset.Set) {
	r.stats.PurgeRegion(topo, region)
	if r.loopIter == nil {
		r.loopIter = make(map[string]int)
	}
	r.loopIter[node]++
	for i := region.Next(0); i >= 0; i = region.Next(i + 1) {
		if inner := topo.At(model.NodeIdx(i)).Node(); inner.ID != node && inner.Type == model.NodeLoopEnd {
			r.loopIter[inner.ID] = 0
		}
	}
}

// clearExceptionLocked drops a node's exception record — its completion
// (or loop purge) moots armed deadlines, pending retries, and accumulated
// failure counts alike.
func (inst *Instance) clearExceptionLocked(node string) { delete(inst.run.exceptions, node) }

// xorDecisionLocked resolves the selection code of an XOR split from the
// explicit option or the split's decision element. An unmatched code is
// clamped to the lowest outgoing code so the engine stays total; the event
// records the code actually taken.
func (inst *Instance) xorDecisionLocked(v model.SchemaView, n *model.Node, co completeOpts) (int, error) {
	outs := model.OutControlEdges(v, n.ID)
	codes := make([]int, 0, len(outs))
	for _, e := range outs {
		codes = append(codes, e.Code)
	}
	sort.Ints(codes)
	var want int
	switch {
	case co.decisionSet:
		want = co.decision
	case n.DecisionElement != "":
		val, ok := inst.store.Read(n.DecisionElement)
		if !ok {
			return 0, fault.Tagf(fault.Invalid, "engine: complete %s/%s: decision element %q has no value", inst.id, n.ID, n.DecisionElement)
		}
		iv, ok := data.AsInt(val)
		if !ok {
			return 0, fault.Tagf(fault.Invalid, "engine: complete %s/%s: decision element %q holds %v, not an integer", inst.id, n.ID, n.DecisionElement, val)
		}
		want = iv
	default:
		return 0, fault.Tagf(fault.Invalid, "engine: complete %s/%s: xor split needs a decision (WithDecision or decision element)", inst.id, n.ID)
	}
	for _, c := range codes {
		if c == want {
			return want, nil
		}
	}
	return codes[0], nil
}

// loopDecisionLocked resolves the iteration decision of a loop end,
// bounded by MaxIterations.
func (inst *Instance) loopDecisionLocked(n *model.Node, co completeOpts) bool {
	again := false
	switch {
	case co.againSet:
		again = co.again
	case n.DecisionElement != "":
		if val, ok := inst.store.Read(n.DecisionElement); ok {
			if b, ok := data.AsBool(val); ok {
				again = b
			}
		}
	}
	if again && n.MaxIterations > 0 && inst.run.loopIter[n.ID]+1 >= n.MaxIterations {
		again = false
	}
	return again
}

// collectWritesLocked validates output parameters against the node's write
// data edges and returns element -> value in writes' array. Manual nodes
// must supply every output parameter; automatic nodes zero-fill missing
// ones.
func (inst *Instance) collectWritesLocked(v model.SchemaView, n *model.Node, outputs map[string]any, writes data.Values) (data.Values, error) {
	seen := make(map[string]bool, len(outputs))
	for _, de := range v.DataEdgesOf(n.ID) {
		if de.Access != model.Write {
			continue
		}
		elem, ok := v.DataElement(de.Element)
		if !ok {
			return nil, fmt.Errorf("engine: complete %s/%s: write edge references unknown element %q", inst.id, n.ID, de.Element)
		}
		val, supplied := outputs[de.Parameter]
		if !supplied {
			if !n.Auto {
				return nil, fault.Tagf(fault.Invalid, "engine: complete %s/%s: missing output parameter %q", inst.id, n.ID, de.Parameter)
			}
			val = elem.Type.ZeroValue()
		}
		coerced, err := data.Coerce(val, elem.Type)
		if err != nil {
			return nil, fmt.Errorf("engine: complete %s/%s: parameter %q: %w", inst.id, n.ID, de.Parameter, err)
		}
		writes = writes.With(de.Element, coerced)
		seen[de.Parameter] = true
	}
	for p := range outputs {
		if !seen[p] {
			return nil, fault.Tagf(fault.Invalid, "engine: complete %s/%s: unknown output parameter %q", inst.id, n.ID, p)
		}
	}
	return writes, nil
}

// cascadeLocked drives the instance forward: it evaluates the marking,
// executes automatic nodes until none is enabled, detects completion of
// the end node, and reconciles the worklist.
func (inst *Instance) cascadeLocked() error {
	v, _ := inst.viewLocked()
	topo := v.Topology()
	// The activation buffer is stack scratch: a cascade step activates a
	// handful of nodes (append spills to the heap past that).
	var scratch [16]model.NodeIdx
	evalBuf := scratch[:0]
	for {
		evalBuf = state.EvaluateInto(v, &inst.run.marking, evalBuf)

		if end := topo.EndIdx(); end != model.InvalidNode && inst.run.marking.NodeAt(end) == state.Activated {
			inst.run.marking.SetNodeAt(end, state.Completed)
			inst.done = true
			break
		}

		// Only auto-executable nodes can continue the cascade; the
		// topology index enumerates them without scanning the schema.
		next := model.InvalidNode
		for _, ni := range topo.AutoExecutableIdx() {
			if inst.run.marking.NodeAt(ni) == state.Activated {
				next = ni
				break
			}
		}
		if next == model.InvalidNode {
			break
		}
		if err := inst.completeLocked(topo.ID(next), "", nil, completeOpts{}); err != nil {
			return err
		}
		// A loop reset may have changed nothing visible to Evaluate's
		// fixpoint (states were cleared); loop again from the top.
	}
	inst.syncWorklistLocked()
	if inst.done {
		// The seal: the sync above was the command's last read of the
		// marking, and it left no activated or running node, no work item
		// and no exception entry behind.
		if check := sealCheck.Load(); check != nil {
			(*check)(inst.id, diffRunning(inst.run, inst.derivedLocked()))
		}
		inst.run = nil
	}
	return nil
}

// syncWorklistLocked reconciles the instance's work items with its
// marking: activated manual activities get items; items of nodes that are
// no longer activated or running are withdrawn. The whole reconciliation
// is one worklist.BatchUpdate — a single lock acquisition and at most one
// org-model resolution per distinct role.
func (inst *Instance) syncWorklistLocked() {
	v, _ := inst.viewLocked()
	topo := v.Topology()
	inst.reconcileExceptionsLocked()
	// Stack scratch: an instance has a handful of live items (append
	// spills to the heap past that), and BatchUpdate only reads the slice.
	var scratch [8]worklist.Wanted
	wanted := scratch[:0]
	for _, ni := range topo.ManualActivitiesIdx() {
		n := topo.At(ni).Node()
		id := n.ID
		if s := inst.run.marking.Node(id); s == state.Activated || s == state.Running {
			// A failed activity in its retry backoff (or withheld
			// until a retry) keeps no offer: the re-offer is a
			// journaled Retry command, so replay reproduces the same
			// suppression window.
			if x := inst.run.exceptions[id]; s == state.Activated && (x.RetryAt != 0 || x.Pending) {
				continue
			}
			wanted = append(wanted, worklist.Wanted{
				Node:    id,
				Role:    n.Role,
				Running: s == state.Running,
			})
		}
	}
	inst.eng.wl.BatchUpdate(inst.id, wanted, inst.eng.org.UsersInRole)
}

// reconcileExceptionsLocked drops the parts of exception records that no
// longer match the node state they describe — a migration, ad-hoc change,
// undo, or loop reset may have moved or deleted the node underneath them.
// The rule is a pure function of the marking, so live execution and
// command replay converge on identical exception state: a deadline and an
// escalation belong to a running node, a retry backoff and a pending
// compensation to an activated one, a failure count to either.
func (inst *Instance) reconcileExceptionsLocked() {
	for id, x := range inst.run.exceptions {
		was := x
		s := inst.run.marking.Node(id)
		if s != state.Running {
			x.Deadline, x.Armed, x.Escalated = 0, false, false
		}
		if s != state.Activated {
			x.RetryAt, x.Pending = 0, false
		}
		if s != state.Activated && s != state.Running {
			x.Failures = 0
		}
		if x != was {
			inst.run.setException(id, x)
		}
	}
}
