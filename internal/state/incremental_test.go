package state

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"adept2/internal/graph"
	"adept2/internal/history"
	"adept2/internal/model"
	"adept2/internal/storage"
)

// The tests in this file pin the tentpole invariant of the interned
// incremental evaluator: array-indexed edge-driven propagation
// (Evaluate/Adapt on the dense Marking) produces markings identical —
// node states and edge signals — to the retained string-keyed
// global-fixpoint reference (refMarking/refFixpoint below), event for
// event, on randomized schemas with XOR/AND blocks, loops, and sync edges,
// across random event prefixes and biased overlay views. Along the way
// every skipped node's derived stamp (SkipSeqAt) must name the evaluation
// that skipped it.

// --- string-keyed reference implementation -------------------------------
//
// refMarking is the historical map-based marking with the global fixpoint
// evaluator — the implementation the interned marking replaced. It is
// retained here, in full, as the semantic ground truth.

type refMarking struct {
	nodes map[string]NodeState
	edges map[model.EdgeKey]EdgeState
}

func newRefMarking() *refMarking {
	return &refMarking{
		nodes: make(map[string]NodeState),
		edges: make(map[model.EdgeKey]EdgeState),
	}
}

func (m *refMarking) node(id string) NodeState       { return m.nodes[id] }
func (m *refMarking) edge(k model.EdgeKey) EdgeState { return m.edges[k] }

func (m *refMarking) setNode(id string, s NodeState) {
	if s == NotActivated {
		delete(m.nodes, id)
		return
	}
	m.nodes[id] = s
}

func (m *refMarking) setEdge(k model.EdgeKey, s EdgeState) {
	if s == NotSignaled {
		delete(m.edges, k)
		return
	}
	m.edges[k] = s
}

// refEdges returns the edges of every type that leave (out) or enter the
// node, in Edges order, from Edges alone: the reference reads no index.
func refEdges(v model.SchemaView, id string, out bool) []*model.Edge {
	var es []*model.Edge
	for _, e := range v.Edges() {
		if out && e.From == id || !out && e.To == id {
			es = append(es, e)
		}
	}
	return es
}

func (m *refMarking) init(v model.SchemaView) {
	start := v.StartID()
	if start == "" {
		return
	}
	m.setNode(start, Completed)
	for _, e := range refEdges(v, start, true) {
		if e.Type != model.EdgeLoop {
			m.setEdge(e.Key(), TrueSignaled)
		}
	}
}

func (m *refMarking) start(id string) error {
	if got := m.node(id); got != Activated {
		return fmt.Errorf("ref: start %q: node is %s", id, got)
	}
	m.setNode(id, Running)
	return nil
}

func (m *refMarking) complete(v model.SchemaView, id string, decision int) error {
	if got := m.node(id); got != Running {
		return fmt.Errorf("ref: complete %q: node is %s", id, got)
	}
	n, ok := v.Node(id)
	if !ok {
		return fmt.Errorf("ref: complete %q: not in schema", id)
	}
	m.setNode(id, Completed)
	for _, e := range refEdges(v, id, true) {
		switch e.Type {
		case model.EdgeControl:
			if n.Type == model.NodeXORSplit && e.Code != decision {
				m.setEdge(e.Key(), FalseSignaled)
			} else {
				m.setEdge(e.Key(), TrueSignaled)
			}
		case model.EdgeSync:
			m.setEdge(e.Key(), TrueSignaled)
		}
	}
	return nil
}

func (m *refMarking) skip(v model.SchemaView, id string) {
	m.setNode(id, Skipped)
	for _, e := range refEdges(v, id, true) {
		if e.Type == model.EdgeLoop {
			continue
		}
		m.setEdge(e.Key(), FalseSignaled)
	}
}

// refFixpoint rescans every node of the view until quiescence — the
// historical global fixpoint evaluation.
func refFixpoint(v model.SchemaView, m *refMarking) []string {
	var activated []string
	for {
		changed := false
		for _, id := range v.NodeIDs() {
			if m.node(id) != NotActivated {
				continue
			}
			n, _ := v.Node(id)
			if n.Type == model.NodeStart {
				continue
			}
			inC := slices.DeleteFunc(refEdges(v, id, false), func(e *model.Edge) bool { return e.Type != model.EdgeControl })
			if len(inC) == 0 {
				continue
			}
			trueC, falseC := 0, 0
			for _, e := range inC {
				switch m.edge(e.Key()) {
				case TrueSignaled:
					trueC++
				case FalseSignaled:
					falseC++
				}
			}
			syncReady := true
			for _, e := range refEdges(v, id, false) {
				if e.Type == model.EdgeSync && m.edge(e.Key()) == NotSignaled {
					syncReady = false
					break
				}
			}

			switch n.Type {
			case model.NodeXORJoin:
				switch {
				case trueC == 1 && trueC+falseC == len(inC) && syncReady:
					m.setNode(id, Activated)
					activated = append(activated, id)
					changed = true
				case falseC == len(inC):
					m.skip(v, id)
					changed = true
				}
			case model.NodeANDJoin:
				switch {
				case trueC == len(inC) && syncReady:
					m.setNode(id, Activated)
					activated = append(activated, id)
					changed = true
				case falseC == len(inC):
					m.skip(v, id)
					changed = true
				}
			default:
				switch {
				case trueC == len(inC) && syncReady:
					m.setNode(id, Activated)
					activated = append(activated, id)
					changed = true
				case falseC > 0:
					m.skip(v, id)
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return activated
}

// refAdaptCore mirrors Adapt's rewind on the string-keyed marking.
func refAdaptCore(v model.SchemaView, m *refMarking, decisions map[string]int) {
	for _, id := range v.NodeIDs() {
		switch m.node(id) {
		case Activated, Skipped:
			m.setNode(id, NotActivated)
		}
	}
	for id := range m.nodes {
		if _, ok := v.Node(id); !ok {
			delete(m.nodes, id)
		}
	}
	clear(m.edges)
	m.init(v)
	start := v.StartID()
	for _, id := range v.NodeIDs() {
		if m.node(id) != Completed || id == start {
			continue
		}
		n, _ := v.Node(id)
		for _, e := range refEdges(v, id, true) {
			switch e.Type {
			case model.EdgeControl:
				if n.Type == model.NodeXORSplit && e.Code != decisions[id] {
					m.setEdge(e.Key(), FalseSignaled)
				} else {
					m.setEdge(e.Key(), TrueSignaled)
				}
			case model.EdgeSync:
				m.setEdge(e.Key(), TrueSignaled)
			}
		}
	}
}

// refAdapt composes refAdaptCore with the fixpoint, mirroring Adapt.
func refAdapt(v model.SchemaView, m *refMarking, decisions map[string]int) []string {
	refAdaptCore(v, m, decisions)
	return refFixpoint(v, m)
}

// refResetLoop mirrors ResetLoop on the string-keyed marking.
func refResetLoop(v model.SchemaView, m *refMarking, region map[string]bool) {
	for id := range region {
		m.setNode(id, NotActivated)
		for _, e := range refEdges(v, id, true) {
			if region[e.To] {
				m.setEdge(e.Key(), NotSignaled)
			}
		}
	}
}

// --- generator and harness ----------------------------------------------

// richFrag is a generated fragment plus the activity IDs inside it, so the
// generator can attach sync edges across parallel branches.
type richFrag struct {
	frag model.Fragment
	acts []string
}

// genRichSchema builds a random block-structured schema featuring
// sequences, parallel and conditional blocks, do-while loops, and sync
// edges between sibling parallel branches.
func genRichSchema(rng *rand.Rand, name string) *model.Schema {
	b := model.NewBuilder(name)
	seq := 0
	newAct := func() richFrag {
		seq++
		id := fmt.Sprintf("a%d", seq)
		return richFrag{frag: b.Activity(id, "A", model.WithRole("r")), acts: []string{id}}
	}
	var gen func(depth int) richFrag
	gen = func(depth int) richFrag {
		if depth <= 0 {
			return newAct()
		}
		switch rng.Intn(5) {
		case 0:
			return newAct()
		case 1: // sequence
			l, r := gen(depth-1), gen(depth-1)
			return richFrag{
				frag: b.Seq(l.frag, r.frag),
				acts: append(l.acts, r.acts...),
			}
		case 2: // parallel, optionally with one cross-branch sync edge
			l, r := gen(depth-1), gen(depth-1)
			f := b.Parallel(l.frag, r.frag)
			if len(l.acts) > 0 && len(r.acts) > 0 && rng.Intn(2) == 0 {
				from := l.acts[rng.Intn(len(l.acts))]
				to := r.acts[rng.Intn(len(r.acts))]
				b.Sync(from, to)
			}
			return richFrag{frag: f, acts: append(l.acts, r.acts...)}
		case 3: // conditional
			l, r := gen(depth-1), gen(depth-1)
			return richFrag{
				frag: b.Choice("", l.frag, r.frag),
				acts: append(l.acts, r.acts...),
			}
		default: // do-while loop
			body := gen(depth - 1)
			return richFrag{frag: b.Loop(body.frag, "", 0), acts: body.acts}
		}
	}
	root := gen(3)
	s, err := b.Build(root.frag)
	if err != nil {
		panic(err)
	}
	return s
}

// markingsIdentical compares the interned marking against the string-keyed
// reference exhaustively over a view: node states and edge signals.
func markingsIdentical(v model.SchemaView, a *Marking, b *refMarking) bool {
	for _, id := range v.NodeIDs() {
		if a.Node(id) != b.node(id) {
			return false
		}
	}
	for _, e := range v.Edges() {
		if a.Edge(e.Key()) != b.edge(e.Key()) {
			return false
		}
	}
	return true
}

// refNodesInState mirrors Marking.NodesInState for the reference.
func refNodesInState(m *refMarking, s NodeState) []string {
	var ids []string
	for id, ns := range m.nodes {
		if ns == s {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

func sortedCopy(ids []string) []string {
	c := append([]string(nil), ids...)
	sort.Strings(c)
	return c
}

func sameSet(a, b []string) bool {
	a, b = sortedCopy(a), sortedCopy(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// dualRun drives one random partial execution on two markings in lockstep:
// mInc (interned, array-indexed) evolves through the incremental Evaluate,
// mRef (string-keyed) through the global fixpoint reference. Each start
// and completion is an event with the next sequence number, recorded in
// the execution index stats as the engine records it. It fails the test at
// the first divergence, or at the first skipped node whose derived stamp
// is not one past the completion that skipped it, and returns the final
// state, the index, and the XOR decision record.
func dualRun(t *testing.T, rng *rand.Rand, v model.SchemaView, info *graph.Info) (mInc *Marking, mRef *refMarking, stats *history.Stats, decisions map[string]int) {
	t.Helper()
	mInc, mRef = NewMarking(v), newRefMarking()
	mInc.Init(v)
	mRef.init(v)
	actInc := Evaluate(v, mInc)
	actRef := refFixpoint(v, mRef)
	if !sameSet(actInc, actRef) {
		t.Fatalf("init activation sets diverge: inc=%v ref=%v", actInc, actRef)
	}
	stats = &history.Stats{}
	stats.Reset(v.Topology())
	decisions = map[string]int{}
	loopIters := map[string]int{}
	died := map[string]int{} // skipped node -> the evaluation that skipped it
	seq := 0

	for step := 0; step < 60; step++ {
		enabled := mInc.NodesInState(Activated)
		if !sameSet(enabled, refNodesInState(mRef, Activated)) {
			t.Fatalf("step %d: enabled sets diverge: inc=%v ref=%v", step, enabled, refNodesInState(mRef, Activated))
		}
		if len(enabled) == 0 {
			break
		}
		id := enabled[rng.Intn(len(enabled))]
		if err := mInc.Start(id); err != nil {
			t.Fatalf("step %d: start inc: %v", step, err)
		}
		if err := mRef.start(id); err != nil {
			t.Fatalf("step %d: start ref: %v", step, err)
		}
		seq++
		stats.OnStart(id, seq)
		node, _ := v.Node(id)
		dec := -1
		if node.Type == model.NodeXORSplit {
			outs := model.OutControlEdges(v, id)
			dec = outs[rng.Intn(len(outs))].Code
			decisions[id] = dec
		}
		seq++
		if node.Type == model.NodeLoopEnd && loopIters[id] < 1 && rng.Intn(2) == 0 {
			// Iterate the loop once: both markings are completed and reset
			// identically, exercising the worklist seeding of ResetLoop.
			loopIters[id]++
			blk, ok := info.ByJoin(id)
			if !ok {
				t.Fatalf("loop end %s has no block", id)
			}
			// The engine resets without completing (the iterating
			// completion only exists in the history); mirror that.
			region, ids := blk.Region(), make(map[string]bool)
			for i := region.Next(0); i >= 0; i = region.Next(i + 1) {
				ids[info.Topology().ID(model.NodeIdx(i))] = true
			}
			ResetLoop(v, mInc, region)
			refResetLoop(v, mRef, ids)
			stats.PurgeRegion(info.Topology(), region)
			for n := range ids {
				delete(decisions, n)
				delete(died, n)
			}
		} else {
			if err := mInc.Complete(v, id, dec); err != nil {
				t.Fatalf("step %d: complete inc: %v", step, err)
			}
			if err := mRef.complete(v, id, dec); err != nil {
				t.Fatalf("step %d: complete ref: %v", step, err)
			}
			stats.OnComplete(id, seq, dec)
		}
		actInc = Evaluate(v, mInc)
		actRef = refFixpoint(v, mRef)
		if !sameSet(actInc, actRef) {
			t.Fatalf("step %d: activation sets diverge: inc=%v ref=%v", step, actInc, actRef)
		}
		if !markingsIdentical(v, mInc, mRef) {
			t.Fatalf("step %d: markings diverge after completing %s", step, id)
		}
		for _, n := range refNodesInState(mRef, Skipped) {
			if _, ok := died[n]; !ok {
				died[n] = seq + 1
			}
			if got := skipSeq(mInc, n, stats); got != died[n] {
				t.Fatalf("step %d: %s was skipped by the evaluation after #%d, derived stamp %d", step, n, died[n]-1, got)
			}
		}
	}
	return mInc, mRef, stats, decisions
}

// skipSeq is SkipSeqAt by node ID.
func skipSeq(m *Marking, id string, stats *history.Stats) int {
	i, ok := m.Topology().Idx(id)
	if !ok {
		return 0
	}
	return m.SkipSeqAt(i, stats)
}

// TestIncrementalMatchesFixpoint: on random schemas and random event
// prefixes, the interned incremental propagation and the string-keyed
// global fixpoint produce identical markings after every single event.
func TestIncrementalMatchesFixpoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := genRichSchema(rng, "p")
		info, err := graph.Analyze(s)
		if err != nil {
			panic(err)
		}
		mInc, mRef, _, _ := dualRun(t, rng, s, info)
		return markingsIdentical(s, mInc, mRef)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptMatchesFixpoint: state adaptation through the interned
// incremental evaluator equals the adaptation closed by the string-keyed
// fixpoint reference, on the unchanged schema (identity adaptation) after
// a random prefix, and reproduces the exported marking exactly.
func TestAdaptMatchesFixpoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := genRichSchema(rng, "p")
		info, err := graph.Analyze(s)
		if err != nil {
			panic(err)
		}
		mInc, mRef, stats, decisions := dualRun(t, rng, s, info)
		before := mInc.Export(stats)

		actInc := Adapt(s, mInc, stats)
		actRef := refAdapt(s, mRef, decisions)
		if !sameSet(actInc, actRef) {
			t.Fatalf("adapt activation sets diverge: inc=%v ref=%v", actInc, actRef)
		}
		if after := mInc.Export(stats); !reflect.DeepEqual(after, before) {
			t.Fatalf("identity adaptation changed the marking:\n%+v\n->\n%+v", before, after)
		}
		return markingsIdentical(s, mInc, mRef)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// biasOverlay applies the canonical ad-hoc change — a serial insert of an
// automatic activity splitting a random control edge — to a fresh overlay
// over the base schema.
func biasOverlay(rng *rand.Rand, base *model.Schema, nodeID string) *storage.Overlay {
	ov := storage.NewOverlay(base)
	biasInto(rng, ov, nodeID)
	return ov
}

// keepsBaseIndices fails unless the overlay's index is a patch of its
// base's: the two share the base's index space, and every base node the
// bias keeps has its base index.
func keepsBaseIndices(t *testing.T, base *model.Schema, ov *storage.Overlay) {
	t.Helper()
	bt, pt := base.Topology(), ov.Topology()
	if n, _ := model.SharedPrefix(bt, pt); n != bt.NumNodes() {
		t.Fatalf("the overlay's index shares %d of its base's %d node indices", n, bt.NumNodes())
	}
	for i := range model.NodeIdx(bt.NumNodes()) {
		if j, ok := pt.Idx(bt.ID(i)); !pt.Hidden(i) && (!ok || j != i) {
			t.Fatalf("base node %s moved from index %d to %d", bt.ID(i), i, j)
		}
	}
}

// biasInto performs the same serial insert on an existing mutable view.
func biasInto(rng *rand.Rand, ov model.MutableView, nodeID string) {
	var ctrl []*model.Edge
	for _, e := range ov.Edges() {
		if e.Type == model.EdgeControl {
			ctrl = append(ctrl, e)
		}
	}
	split := ctrl[rng.Intn(len(ctrl))]
	ins := &model.Node{ID: nodeID, Name: nodeID, Type: model.NodeActivity, Auto: true, Template: nodeID}
	if err := ov.RemoveEdge(split.Key()); err != nil {
		panic(err)
	}
	if err := ov.AddNode(ins); err != nil {
		panic(err)
	}
	if err := ov.AddEdge(&model.Edge{From: split.From, To: ins.ID, Type: model.EdgeControl, Code: split.Code}); err != nil {
		panic(err)
	}
	if err := ov.AddEdge(&model.Edge{From: ins.ID, To: split.To, Type: model.EdgeControl}); err != nil {
		panic(err)
	}
}

// TestAdaptMatchesFixpointOnBiasedOverlay: after a random prefix, the view
// is biased through a storage overlay (a serial insert of an automatic
// activity splitting a random control edge, the canonical ad-hoc change),
// and both adaptation paths must agree on the overlaid view. For the
// interned marking this exercises the index remap across the bias refresh:
// the marking was bound to the base topology and must carry its state onto
// the overlay's patched index, which keeps the base's indices, hides the
// split edge and appends the inserted node and its edges.
func TestAdaptMatchesFixpointOnBiasedOverlay(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := genRichSchema(rng, "p")
		info, err := graph.Analyze(base)
		if err != nil {
			panic(err)
		}
		mInc, mRef, stats, decisions := dualRun(t, rng, base, info)

		ov := biasOverlay(rng, base, "bias_x")
		keepsBaseIndices(t, base, ov)

		stats.Rebind(ov.Topology()) // as the engine binds it before adapting
		actInc := Adapt(ov, mInc, stats)
		actRef := refAdapt(ov, mRef, decisions)
		if !sameSet(actInc, actRef) {
			t.Fatalf("biased adapt activation sets diverge: inc=%v ref=%v", actInc, actRef)
		}
		return markingsIdentical(ov, mInc, mRef)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestOverlayRemapStability: a bias refresh patches the base's index anew,
// and the marking must remap so that all per-ID states (node states and
// edge signals) survive unchanged across one — and a second — refresh,
// while the bound topology follows the view and every kept base node keeps
// its base index. This pins the
// index-validity-window rule documented in internal/model/doc.go. Adapting
// to the twice-biased view then keeps every skipped node skipped, and the
// stamp derived for it from the unchanged execution index is the one it
// had before the refreshes.
func TestOverlayRemapStability(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := genRichSchema(rng, "p")
		info, err := graph.Analyze(base)
		if err != nil {
			panic(err)
		}
		m, _, stats, _ := dualRun(t, rng, base, info)

		// Snapshot the pre-refresh state by identity.
		nodeSnap := make(map[string]NodeState)
		skips := make(map[string]int)
		for _, id := range base.NodeIDs() {
			nodeSnap[id] = m.Node(id)
			if m.Node(id) == Skipped {
				skips[id] = skipSeq(m, id, stats)
			}
		}
		edgeSnap := make(map[model.EdgeKey]EdgeState)
		for _, e := range base.Edges() {
			edgeSnap[e.Key()] = m.Edge(e.Key())
		}

		ov := biasOverlay(rng, base, "bias_x")
		keepsBaseIndices(t, base, ov)
		topo1 := ov.Topology()
		// The first view-taking entry point re-binds the marking. The
		// pending worklist is empty (dualRun left a fixpoint), so this
		// Evaluate changes nothing — it only triggers the remap.
		Evaluate(ov, m)
		if m.Topology() != topo1 {
			t.Fatalf("marking not rebound to overlay topology")
		}
		for id, want := range nodeSnap {
			if m.Node(id) != want {
				t.Fatalf("node %s changed across remap: %s -> %s", id, want, m.Node(id))
			}
		}
		for k, want := range edgeSnap {
			if _, ok := topo1.EdgeIdxOf(k); !ok {
				continue // edge split away by the insert
			}
			if m.Edge(k) != want {
				t.Fatalf("edge %s changed across remap: %s -> %s", k, want, m.Edge(k))
			}
		}
		// The inserted node is interned and addressable after the refresh.
		if _, ok := topo1.Idx("bias_x"); !ok {
			t.Fatalf("inserted node not interned")
		}
		if m.Node("bias_x") != NotActivated {
			t.Fatalf("inserted node should start not-activated, is %s", m.Node("bias_x"))
		}

		// A second refresh (another insert) must remap again and still
		// preserve everything, including any state on the first insert.
		biasInto(rng, ov, "bias_y")
		keepsBaseIndices(t, base, ov)
		topo2 := ov.Topology()
		if topo2 == topo1 {
			t.Fatalf("bias refresh did not re-intern the topology")
		}
		Evaluate(ov, m) // binds to topo2
		if m.Topology() != topo2 {
			t.Fatalf("marking not rebound after second refresh")
		}
		for id, want := range nodeSnap {
			if m.Node(id) != want {
				t.Fatalf("node %s changed across second remap", id)
			}
		}

		stats.Rebind(topo2) // as the engine binds it before adapting
		Adapt(ov, m, stats)
		for id, want := range skips {
			if m.Node(id) != Skipped || skipSeq(m, id, stats) != want {
				t.Fatalf("node %s skipped from #%d before the inserts is %s from #%d after adapting to them",
					id, want, m.Node(id), skipSeq(m, id, stats))
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestEvaluateAfterManualStaging: hand-staged marking mutations through
// SetNode/SetEdge (the way compliance tests stage scenarios: mark a node
// completed and signal its outgoing edges) queue exactly the affected
// nodes; the next Evaluate must agree with the fixpoint run on the
// identically staged string-keyed reference.
//
// Note the staging must be *consistent* — a true-signaled edge implies a
// completed source. On corrupted markings (e.g. a true signal from a node
// that a cascade later skips) neither evaluator is order-independent; that
// was equally true of the historical global fixpoint, whose outcome then
// depended on the schema scan order.
func TestEvaluateAfterManualStaging(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := genRichSchema(rng, "p")
		m := NewMarking(s)
		ref := newRefMarking()
		m.Init(s)
		ref.init(s)
		Evaluate(s, m)
		refFixpoint(s, ref)
		ids := s.NodeIDs()
		for i := 0; i < 2; i++ {
			id := ids[rng.Intn(len(ids))]
			if m.Node(id) != NotActivated {
				continue
			}
			n, _ := s.Node(id)
			if n.Type == model.NodeStart || n.Type == model.NodeEnd {
				continue
			}
			m.SetNode(id, Completed)
			ref.setNode(id, Completed)
			outs := model.OutControlEdges(s, id)
			pick := -1
			if n.Type == model.NodeXORSplit && len(outs) > 0 {
				pick = rng.Intn(len(outs))
			}
			for j, e := range outs {
				es := TrueSignaled
				if pick >= 0 && j != pick {
					es = FalseSignaled
				}
				m.SetEdge(e.Key(), es)
				ref.setEdge(e.Key(), es)
			}
			for _, e := range refEdges(s, id, true) {
				if e.Type == model.EdgeSync {
					m.SetEdge(e.Key(), TrueSignaled)
					ref.setEdge(e.Key(), TrueSignaled)
				}
			}
		}
		incAct := Evaluate(s, m)
		refAct := refFixpoint(s, ref)
		if !sameSet(incAct, refAct) {
			return false
		}
		return markingsIdentical(s, m, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
