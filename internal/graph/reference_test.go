package graph_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"adept2/internal/bitset"
	"adept2/internal/graph"
	"adept2/internal/model"
	"adept2/internal/sim"
)

// refBlock is a block of the reference analysis: every node set a map of
// node IDs.
type refBlock struct {
	split, join string
	kind        model.NodeType
	branches    []map[string]bool
	inside      map[string]bool
}

func (b *refBlock) region() map[string]bool {
	r := make(map[string]bool, len(b.inside)+2)
	for id := range b.inside {
		r[id] = true
	}
	r[b.split], r[b.join] = true, true
	return r
}

// inViewOrder lists a set's IDs in the view's node order. Where the
// analysis stops at the first of several defects, the reference walks its
// sets in this order, so that the defect it names is a function of the
// view.
func inViewOrder(v model.SchemaView, set map[string]bool) []string {
	var ids []string
	for _, id := range v.NodeIDs() {
		if set[id] {
			ids = append(ids, id)
		}
	}
	return ids
}

// refAnalyze is the block analysis over string-keyed maps, as graph.Analyze
// computed it before its node sets became bitsets over the view's topology:
// the reference TestAnalyzeAgreesWithReference holds Analyze to.
func refAnalyze(v model.SchemaView) ([]*refBlock, error) {
	order, err := refTopoOrder(v)
	if err != nil {
		return nil, fmt.Errorf("graph: control flow not acyclic: %w", err)
	}
	pos := make(map[string]int, len(order))
	for i, id := range order {
		pos[id] = i
	}
	var blocks []*refBlock
	byJoin := make(map[string]*refBlock)

	loopPairs, err := refLoopPairs(v)
	if err != nil {
		return nil, err
	}
	for _, id := range v.NodeIDs() {
		n, _ := v.Node(id)
		var b *refBlock
		switch n.Type {
		case model.NodeANDSplit, model.NodeXORSplit:
			b, err = refMatchSplit(v, n, pos)
		case model.NodeLoopStart:
			end, ok := loopPairs[id]
			if !ok {
				return nil, fmt.Errorf("graph: loop start %q has no loop edge", id)
			}
			b, err = refMatchLoop(v, id, end)
		default:
			continue
		}
		if err != nil {
			return nil, err
		}
		blocks = append(blocks, b)
		if prev, dup := byJoin[b.join]; dup {
			return nil, fmt.Errorf("graph: join %q closes both %q and %q", b.join, prev.split, b.split)
		}
		byJoin[b.join] = b
	}
	for _, id := range v.NodeIDs() {
		n, _ := v.Node(id)
		if n.Type.IsJoin() {
			if _, ok := byJoin[id]; !ok {
				return nil, fmt.Errorf("graph: join %q has no matching split", id)
			}
		}
	}
	if err := refCheckNesting(blocks); err != nil {
		return nil, err
	}
	sort.SliceStable(blocks, func(i, j int) bool { return len(blocks[i].inside) < len(blocks[j].inside) })
	return blocks, nil
}

// controlEdges returns the control edges that leave (out) or enter the
// node, in Edges order, from Edges alone: the reference reads no index.
func controlEdges(v model.SchemaView, id string, out bool) []*model.Edge {
	var es []*model.Edge
	for _, e := range v.Edges() {
		if e.Type == model.EdgeControl && (out && e.From == id || !out && e.To == id) {
			es = append(es, e)
		}
	}
	return es
}

// refTopoOrder is graph.TopoOrder over control edges as it was before it
// ran on the topology.
func refTopoOrder(v model.SchemaView) ([]string, error) {
	ids := v.NodeIDs()
	indeg := make(map[string]int, len(ids))
	for _, id := range ids {
		indeg[id] = 0
	}
	for _, e := range v.Edges() {
		if e.Type == model.EdgeControl {
			indeg[e.To]++
		}
	}
	queue := make([]string, 0, len(ids))
	for _, id := range ids {
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	order := make([]string, 0, len(ids))
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, e := range controlEdges(v, id, true) {
			if indeg[e.To]--; indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	if len(order) != len(ids) {
		var cyc []string
		for _, id := range ids {
			if indeg[id] > 0 {
				cyc = append(cyc, id)
			}
		}
		sort.Strings(cyc)
		return nil, fmt.Errorf("graph: cycle involving nodes %v", cyc)
	}
	return order, nil
}

func refLoopPairs(v model.SchemaView) (map[string]string, error) {
	pairs := make(map[string]string)
	var loops []*model.Edge
	for _, e := range v.Edges() {
		if e.Type != model.EdgeLoop {
			continue
		}
		from, _ := v.Node(e.From)
		to, _ := v.Node(e.To)
		if from == nil || to == nil || from.Type != model.NodeLoopEnd || to.Type != model.NodeLoopStart {
			return nil, fmt.Errorf("graph: loop edge %s must run from a loop end to a loop start", e)
		}
		if prev, dup := pairs[e.To]; dup {
			return nil, fmt.Errorf("graph: loop start %q targeted by loop edges from %q and %q", e.To, prev, e.From)
		}
		pairs[e.To] = e.From
		loops = append(loops, e)
	}
	ends := make(map[string]bool)
	for _, e := range loops {
		if ends[e.From] {
			return nil, fmt.Errorf("graph: loop end %q sources multiple loop edges", e.From)
		}
		ends[e.From] = true
	}
	for _, id := range v.NodeIDs() {
		if n, _ := v.Node(id); n.Type == model.NodeLoopEnd && !ends[id] {
			return nil, fmt.Errorf("graph: loop end %q has no loop edge", id)
		}
	}
	return pairs, nil
}

func refMatchSplit(v model.SchemaView, split *model.Node, pos map[string]int) (*refBlock, error) {
	join, _ := split.Type.MatchingJoin()
	outs := controlEdges(v, split.ID, true)
	if len(outs) < 2 {
		return nil, fmt.Errorf("graph: split %q has %d outgoing branches, need >=2", split.ID, len(outs))
	}
	if split.Type == model.NodeXORSplit {
		codes := make(map[int]bool, len(outs))
		for _, e := range outs {
			if codes[e.Code] {
				return nil, fmt.Errorf("graph: xor split %q has duplicate selection code %d", split.ID, e.Code)
			}
			codes[e.Code] = true
		}
	}
	reach := make([]map[string]bool, len(outs))
	for i, e := range outs {
		reach[i] = graph.Reachable(v, e.To, graph.Control, true)
	}
	joinID, joinPos := "", -1
	for id := range reach[0] {
		common := true
		for i := 1; i < len(reach); i++ {
			if !reach[i][id] {
				common = false
				break
			}
		}
		if common && (joinPos == -1 || pos[id] < joinPos) {
			joinID, joinPos = id, pos[id]
		}
	}
	if joinID == "" {
		return nil, fmt.Errorf("graph: split %q: branches never rejoin", split.ID)
	}
	jn, _ := v.Node(joinID)
	if jn.Type != join {
		return nil, fmt.Errorf("graph: split %q (%s) rejoins at %q (%s), expected a %s", split.ID, split.Type, joinID, jn.Type, join)
	}
	b := &refBlock{split: split.ID, join: joinID, kind: split.Type, inside: make(map[string]bool)}
	for i := range outs {
		branch := make(map[string]bool)
		for id := range reach[i] {
			if pos[id] < joinPos {
				branch[id] = true
			}
		}
		b.branches = append(b.branches, branch)
		for _, id := range inViewOrder(v, branch) {
			if b.inside[id] {
				return nil, fmt.Errorf("graph: split %q: node %q belongs to multiple branches", split.ID, id)
			}
			b.inside[id] = true
		}
	}
	if err := refCheckBoundary(v, b); err != nil {
		return nil, err
	}
	return b, nil
}

func refMatchLoop(v model.SchemaView, start, end string) (*refBlock, error) {
	fwd := graph.Reachable(v, start, graph.Control, true)
	back := graph.Reachable(v, end, graph.Control, false)
	if !fwd[end] {
		return nil, fmt.Errorf("graph: loop start %q does not reach its loop end %q", start, end)
	}
	body := make(map[string]bool)
	for id := range fwd {
		if back[id] && id != start && id != end {
			body[id] = true
		}
	}
	b := &refBlock{split: start, join: end, kind: model.NodeLoopStart, branches: []map[string]bool{body}, inside: body}
	if err := refCheckBoundary(v, b); err != nil {
		return nil, err
	}
	return b, nil
}

func refCheckBoundary(v model.SchemaView, b *refBlock) error {
	for _, id := range inViewOrder(v, b.inside) {
		for _, e := range controlEdges(v, id, false) {
			if !b.inside[e.From] && e.From != b.split {
				return fmt.Errorf("graph: block %q..%q: control edge %s enters the block from outside", b.split, b.join, e)
			}
		}
		for _, e := range controlEdges(v, id, true) {
			if !b.inside[e.To] && e.To != b.join {
				return fmt.Errorf("graph: block %q..%q: control edge %s leaves the block before the join", b.split, b.join, e)
			}
		}
	}
	return nil
}

func refCheckNesting(blocks []*refBlock) error {
	for i := 0; i < len(blocks); i++ {
		for j := i + 1; j < len(blocks); j++ {
			a, b := blocks[i], blocks[j]
			ra, rb := a.region(), b.region()
			var shared, aInB, bInA int
			for id := range ra {
				if rb[id] {
					shared++
				}
			}
			if shared == 0 {
				continue
			}
			for id := range ra {
				if rb[id] {
					aInB++
				}
			}
			for id := range rb {
				if ra[id] {
					bInA++
				}
			}
			if aInB == len(ra) || bInA == len(rb) {
				continue
			}
			return fmt.Errorf("graph: blocks %q..%q and %q..%q overlap without nesting", a.split, a.join, b.split, b.join)
		}
	}
	return nil
}

// agreeWithReference fails t unless Analyze and the reference agree on v:
// the same refusal message, or the same blocks in the same order, each
// with the same split, join, kind, branch sets, inside and region. Every
// join resolves to its block. It returns whether v was refused.
func agreeWithReference(t *testing.T, name string, v model.SchemaView) bool {
	t.Helper()
	want, wantErr := refAnalyze(v)
	got, err := graph.Analyze(v)
	if wantErr != nil || err != nil {
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
			t.Errorf("%s: Analyze refused with %v, the reference with %v", name, err, wantErr)
		}
		return true
	}
	sorted := func(set map[string]bool) []string {
		ids := make([]string, 0, len(set))
		for id := range set {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		return ids
	}
	ids := func(set bitset.Set) []string {
		var ids []string
		for n := set.Next(0); n >= 0; n = set.Next(n + 1) {
			ids = append(ids, got.Topology().ID(model.NodeIdx(n)))
		}
		slices.Sort(ids)
		return ids
	}
	if len(got.Blocks()) != len(want) {
		t.Errorf("%s: Analyze finds %d blocks, the reference %d", name, len(got.Blocks()), len(want))
		return false
	}
	for k, b := range got.Blocks() {
		r := want[k]
		if b.Split != r.split || b.Join != r.join || b.Kind != r.kind || len(b.Branches) != len(r.branches) {
			t.Errorf("%s: block %d is %s..%s (%s, %d branches), the reference's %s..%s (%s, %d branches)",
				name, k, b.Split, b.Join, b.Kind, len(b.Branches), r.split, r.join, r.kind, len(r.branches))
			continue
		}
		for i, br := range b.Branches {
			if g, w := ids(br), sorted(r.branches[i]); !slices.Equal(g, w) {
				t.Errorf("%s: block %s..%s branch %d holds %v, the reference's %v", name, b.Split, b.Join, i, g, w)
			}
		}
		if g, w := ids(b.Inside), sorted(r.inside); !slices.Equal(g, w) {
			t.Errorf("%s: block %s..%s inside holds %v, the reference's %v", name, b.Split, b.Join, g, w)
		}
		if g, w := ids(b.Region()), sorted(r.region()); !slices.Equal(g, w) {
			t.Errorf("%s: block %s..%s region holds %v, the reference's %v", name, b.Split, b.Join, g, w)
		}
		if j, ok := got.ByJoin(b.Join); !ok || j != b {
			t.Errorf("%s: ByJoin(%q) does not resolve to its block", name, b.Join)
		}
	}
	return false
}

// mutants derives malformed variants of a valid schema, one edit each: a
// control edge removed (a dangling branch), a control edge added between
// two nodes (a crossing edge or a cycle), a loop edge added, and an XOR
// branch given its sibling's code.
func mutants(rng *rand.Rand, s *model.Schema) []*model.Schema {
	var out []*model.Schema
	ids := s.NodeIDs()
	var control []model.EdgeKey
	for _, e := range s.Edges() {
		if e.Type == model.EdgeControl {
			control = append(control, e.Key())
		}
	}
	for k := 0; k < 4; k++ {
		c := s.Clone()
		var err error
		switch k {
		case 0:
			err = c.RemoveEdge(control[rng.Intn(len(control))])
		case 1:
			err = c.AddEdge(&model.Edge{From: ids[rng.Intn(len(ids))], To: ids[rng.Intn(len(ids))], Type: model.EdgeControl})
		case 2:
			err = c.AddEdge(&model.Edge{From: ids[rng.Intn(len(ids))], To: ids[rng.Intn(len(ids))], Type: model.EdgeLoop})
		case 3:
			var xor []*model.Edge
			for _, id := range c.NodeIDs() {
				if n, _ := c.Node(id); n.Type == model.NodeXORSplit {
					xor = model.OutControlEdges(c, id)
					break
				}
			}
			if len(xor) < 2 {
				continue
			}
			xor[1].Code = xor[0].Code
		}
		if err == nil {
			out = append(out, c)
		}
	}
	return out
}

// TestAnalyzeAgreesWithReference holds Analyze to the map-based reference
// on 250 sim.RandomSchema types, the 60 schemas of TestAnalyzeProperty,
// and the malformed mutants of each, whose refusal messages verify shows to
// users.
func TestAnalyzeAgreesWithReference(t *testing.T) {
	refused, schemas := 0, 0
	check := func(name string, rng *rand.Rand, s *model.Schema) {
		if agreeWithReference(t, name, s) {
			t.Errorf("%s: a valid schema was refused", name)
		}
		for i, m := range mutants(rng, s) {
			schemas++
			if agreeWithReference(t, fmt.Sprintf("%s mutant %d", name, i), m) {
				refused++
			}
		}
		schemas++
	}
	for seed := int64(0); seed < 250; seed++ {
		rng := rand.New(rand.NewSource(seed))
		check(fmt.Sprintf("random seed %d", seed), rng, sim.RandomSchema(rng, fmt.Sprintf("r%d", seed), sim.DefaultSchemaOpts()))
	}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		check(fmt.Sprintf("property seed %d", seed), rng, graph.GenSchema(rng))
	}
	t.Logf("%d schemas, %d refused by both", schemas, refused)
	if refused < schemas/4 {
		t.Errorf("only %d of %d schemas were refused: the mutants exercise too few refusals", refused, schemas)
	}
}
