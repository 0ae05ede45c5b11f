package graph

import (
	"cmp"
	"fmt"
	"slices"
	"unsafe"

	"adept2/internal/bitset"
	"adept2/internal/model"
)

// Block describes one matched block of a block-structured schema: the
// split node, its matching join, and the nodes strictly inside, grouped by
// branch. Every node set is a bitset over the analysed view's NodeIdx space
// (Info.Topology): bit n is set iff the node with NodeIdx n is in the set.
// The sets are shared — callers must treat them as read-only.
type Block struct {
	// Split is the node opening the block (AND/XOR split or loop start).
	Split string
	// Join is the matching node closing the block.
	Join string
	// Kind is the node type of the split.
	Kind model.NodeType
	// Branches holds the node sets strictly inside each branch, indexed by
	// the branch's position among the split's outgoing control edges. A
	// loop block has exactly one branch (its body).
	Branches []bitset.Set
	// Inside is the union of all branches (strictly between split and
	// join).
	Inside bitset.Set
	// region is Inside ∪ {Split, Join}.
	region bitset.Set
}

// Region returns the block's node set including split and join: what a
// loop's iteration resets and history reduction purges.
func (b *Block) Region() bitset.Set { return b.region }

// Info is the result of block-structure analysis of a schema view.
type Info struct {
	blocks []*Block
	// byJoin holds, per NodeIdx, one more than the position in blocks of
	// the block the node closes, and 0 for a node that closes none.
	byJoin []int32
	// topo is the topology index of the analysed view: the NodeIdx space
	// of every node set and of byJoin.
	topo *model.Topology
}

// Topology returns the topology index of the analyzed view. Every node set
// of a Block is expressed in its NodeIdx space.
func (i *Info) Topology() *model.Topology { return i.topo }

// Analyze matches every split with its join, computes branch membership,
// and checks proper nesting. It fails if the control-edge graph is cyclic,
// a split has no matching join, branches overlap before the join, block
// boundaries are crossed by control edges, or blocks are not properly
// nested. The returned Info is consumed by the verifier (structural
// soundness), the engine (loop-body resets), compliance replay and history
// reduction (loop regions). The analysis runs on the view's topology index
// alone.
func Analyze(v model.SchemaView) (*Info, error) {
	topo := v.Topology()
	order, err := topoOrder(topo, Control)
	if err != nil {
		return nil, fmt.Errorf("graph: control flow not acyclic: %w", err)
	}
	n := topo.NumNodes()
	a := &analyzer{topo: topo, order: order, pos: make([]int32, n), from: make([]model.NodeIdx, topo.NumEdges())}
	for p, i := range order {
		a.pos[i] = int32(p)
	}
	for i := range a.from {
		a.from[i] = model.InvalidNode
	}
	for i := range n {
		if topo.Hidden(model.NodeIdx(i)) {
			continue
		}
		nt := topo.At(model.NodeIdx(i))
		for _, out := range [...][]model.EdgeIdx{nt.OutControlIdx(), nt.OutLoopIdx()} {
			for _, ei := range out {
				a.from[ei] = model.NodeIdx(i)
			}
		}
	}
	loopEnd, err := a.loopPairs()
	if err != nil {
		return nil, err
	}

	info := &Info{byJoin: make([]int32, n), topo: topo}
	for i := range n {
		if topo.Hidden(model.NodeIdx(i)) {
			continue
		}
		node := topo.At(model.NodeIdx(i)).Node()
		var b *Block
		switch node.Type {
		case model.NodeANDSplit, model.NodeXORSplit:
			b, err = a.matchSplit(model.NodeIdx(i))
		case model.NodeLoopStart:
			if loopEnd[i] == model.InvalidNode {
				return nil, fmt.Errorf("graph: loop start %q has no loop edge", node.ID)
			}
			b, err = a.matchLoop(model.NodeIdx(i), loopEnd[i])
		default:
			continue
		}
		if err != nil {
			return nil, err
		}
		info.blocks = append(info.blocks, b)
		j, _ := topo.Idx(b.Join)
		if prev := info.byJoin[j]; prev != 0 {
			return nil, fmt.Errorf("graph: join %q closes both %q and %q", b.Join, info.blocks[prev-1].Split, b.Split)
		}
		info.byJoin[j] = int32(len(info.blocks))
	}

	// Every join must be matched by exactly one split.
	for i := range n {
		if topo.Hidden(model.NodeIdx(i)) {
			continue
		}
		if node := topo.At(model.NodeIdx(i)).Node(); node.Type.IsJoin() && info.byJoin[i] == 0 {
			return nil, fmt.Errorf("graph: join %q has no matching split", node.ID)
		}
	}
	if err := checkNesting(info.blocks); err != nil {
		return nil, err
	}

	// Sort blocks by size ascending so that the first containing block
	// found is the innermost one, and point each join at its new position.
	slices.SortStableFunc(info.blocks, func(x, y *Block) int { return cmp.Compare(x.Inside.Count(), y.Inside.Count()) })
	for k, b := range info.blocks {
		j, _ := topo.Idx(b.Join)
		info.byJoin[j] = int32(k + 1)
	}
	return info, nil
}

// analyzer is the scratch of one Analyze, by NodeIdx: the control-flow
// order and the edge sources the topology does not index.
type analyzer struct {
	topo  *model.Topology
	order []model.NodeIdx // the nodes in control-flow topological order
	pos   []int32         // per node: its position in order
	from  []model.NodeIdx // per edge: its source, for control and loop edges
}

// loopPairs returns, per node, the loop end whose loop edge targets it
// (InvalidNode if none), after checking that every loop edge runs from a
// loop end to a loop start and pairs them one to one.
func (a *analyzer) loopPairs() ([]model.NodeIdx, error) {
	loopEnd := make([]model.NodeIdx, a.topo.NumNodes())
	for i := range loopEnd {
		loopEnd[i] = model.InvalidNode
	}
	var loops []model.EdgeIdx
	for ei := range model.EdgeIdx(a.topo.NumEdges()) {
		if a.topo.EdgeHidden(ei) {
			continue
		}
		e, from, to := a.topo.EdgeAt(ei), a.from[ei], a.topo.EdgeTarget(ei)
		if e.Type != model.EdgeLoop {
			continue
		}
		if from == model.InvalidNode || to == model.InvalidNode ||
			a.topo.At(from).Node().Type != model.NodeLoopEnd || a.topo.At(to).Node().Type != model.NodeLoopStart {
			return nil, fmt.Errorf("graph: loop edge %s must run from a loop end to a loop start", e)
		}
		if prev := loopEnd[to]; prev != model.InvalidNode {
			return nil, fmt.Errorf("graph: loop start %q targeted by loop edges from %q and %q", e.To, a.topo.ID(prev), e.From)
		}
		loopEnd[to] = from
		loops = append(loops, ei)
	}
	// Every loop end must source exactly one loop edge.
	ends := a.set()
	for _, ei := range loops {
		from := a.from[ei]
		if ends.Has(int(from)) {
			return nil, fmt.Errorf("graph: loop end %q sources multiple loop edges", a.topo.ID(from))
		}
		ends.Set(int(from))
	}
	for i := range a.topo.NumNodes() {
		if a.topo.Hidden(model.NodeIdx(i)) {
			continue
		}
		if node := a.topo.At(model.NodeIdx(i)).Node(); node.Type == model.NodeLoopEnd && !ends.Has(i) {
			return nil, fmt.Errorf("graph: loop end %q has no loop edge", node.ID)
		}
	}
	return loopEnd, nil
}

// set returns an empty node set.
func (a *analyzer) set() bitset.Set { return bitset.New(a.topo.NumNodes()) }

// reach returns the nodes reachable from the given one over control edges,
// itself included.
func (a *analyzer) reach(from model.NodeIdx) bitset.Set {
	seen := a.set()
	seen.Set(int(from))
	for stack := []model.NodeIdx{from}; len(stack) > 0; {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ei := range a.topo.At(n).OutControlIdx() {
			if t := a.topo.EdgeTarget(ei); t != model.InvalidNode && !seen.Has(int(t)) {
				seen.Set(int(t))
				stack = append(stack, t)
			}
		}
	}
	return seen
}

func (a *analyzer) matchSplit(split model.NodeIdx) (*Block, error) {
	sn := a.topo.At(split).Node()
	join, _ := sn.Type.MatchingJoin()
	outs := a.topo.At(split).OutControlIdx()
	if len(outs) < 2 {
		return nil, fmt.Errorf("graph: split %q has %d outgoing branches, need >=2", sn.ID, len(outs))
	}
	if sn.Type == model.NodeXORSplit {
		for x, ex := range outs {
			code := a.topo.EdgeAt(ex).Code
			if slices.ContainsFunc(outs[:x], func(ey model.EdgeIdx) bool { return a.topo.EdgeAt(ey).Code == code }) {
				return nil, fmt.Errorf("graph: xor split %q has duplicate selection code %d", sn.ID, code)
			}
		}
	}

	// Reach sets per branch, never passing through the split again (the
	// control graph is acyclic, so that cannot happen anyway).
	b := &Block{Split: sn.ID, Kind: sn.Type, Branches: make([]bitset.Set, len(outs)), Inside: a.set()}
	for k, ei := range outs {
		b.Branches[k] = a.reach(a.topo.EdgeTarget(ei))
	}
	// The matching join is the topologically first node common to all
	// branches.
	joinIdx := model.InvalidNode
	for n := b.Branches[0].Next(0); n >= 0; n = b.Branches[0].Next(n + 1) {
		common := !slices.ContainsFunc(b.Branches[1:], func(br bitset.Set) bool { return !br.Has(n) })
		if common && (joinIdx == model.InvalidNode || a.pos[n] < a.pos[joinIdx]) {
			joinIdx = model.NodeIdx(n)
		}
	}
	if joinIdx == model.InvalidNode {
		return nil, fmt.Errorf("graph: split %q: branches never rejoin", sn.ID)
	}
	jn := a.topo.At(joinIdx).Node()
	if jn.Type != join {
		return nil, fmt.Errorf("graph: split %q (%s) rejoins at %q (%s), expected a %s", sn.ID, sn.Type, jn.ID, jn.Type, join)
	}
	b.Join = jn.ID
	for _, br := range b.Branches {
		for n := br.Next(0); n >= 0; n = br.Next(n + 1) {
			if a.pos[n] >= a.pos[joinIdx] {
				br.Clear(n)
			} else if b.Inside.Has(n) {
				return nil, fmt.Errorf("graph: split %q: node %q belongs to multiple branches", sn.ID, a.topo.ID(model.NodeIdx(n)))
			}
		}
		b.Inside.Union(br)
	}
	return b, a.bound(split, joinIdx, b)
}

func (a *analyzer) matchLoop(start, end model.NodeIdx) (*Block, error) {
	body := a.reach(start)
	b := &Block{Split: a.topo.ID(start), Join: a.topo.ID(end), Kind: model.NodeLoopStart, Branches: []bitset.Set{body}, Inside: body}
	if !body.Has(int(end)) {
		return nil, fmt.Errorf("graph: loop start %q does not reach its loop end %q", b.Split, b.Join)
	}
	// The body is what the start reaches and what reaches the end: one
	// sweep back along the control-flow order from the end finds the
	// latter.
	back := a.set()
	back.Set(int(end))
	for p := a.pos[end] - 1; p >= 0; p-- {
		n := a.order[p]
		if slices.ContainsFunc(a.topo.At(n).OutControlIdx(), func(ei model.EdgeIdx) bool {
			t := a.topo.EdgeTarget(ei)
			return t != model.InvalidNode && back.Has(int(t))
		}) {
			back.Set(int(n))
		}
	}
	for w := range body {
		body[w] &= back[w]
	}
	body.Clear(int(start))
	body.Clear(int(end))
	return b, a.bound(start, end, b)
}

// bound sets b's region and verifies it is single-entry single-exit with
// respect to control edges: interior nodes connect only within the region.
func (a *analyzer) bound(split, join model.NodeIdx, b *Block) error {
	b.region = slices.Clone(b.Inside)
	b.region.Set(int(split))
	b.region.Set(int(join))
	for n := b.Inside.Next(0); n >= 0; n = b.Inside.Next(n + 1) {
		nt := a.topo.At(model.NodeIdx(n))
		for _, ei := range nt.InControlIdx() {
			if from := a.from[ei]; from == model.InvalidNode || (!b.Inside.Has(int(from)) && from != split) {
				return fmt.Errorf("graph: block %q..%q: control edge %s enters the block from outside", b.Split, b.Join, a.topo.EdgeAt(ei))
			}
		}
		for _, ei := range nt.OutControlIdx() {
			if to := a.topo.EdgeTarget(ei); to == model.InvalidNode || (!b.Inside.Has(int(to)) && to != join) {
				return fmt.Errorf("graph: block %q..%q: control edge %s leaves the block before the join", b.Split, b.Join, a.topo.EdgeAt(ei))
			}
		}
	}
	return nil
}

// checkNesting verifies that block regions are pairwise disjoint or one
// contains the other: two regions that share a node must share all of the
// smaller one.
func checkNesting(blocks []*Block) error {
	for i, a := range blocks {
		for _, b := range blocks[i+1:] {
			shared := a.region.AndCount(b.region)
			if shared == 0 || shared == a.region.Count() || shared == b.region.Count() {
				continue
			}
			return fmt.Errorf("graph: blocks %q..%q and %q..%q overlap without nesting", a.Split, a.Join, b.Split, b.Join)
		}
	}
	return nil
}

// ApproxBytes returns the memory the analysis holds beside the topology it
// points to: the Info, the block records and their pointers, the branch
// headers, every node set's words and the join table.
func (i *Info) ApproxBytes() int {
	total := int(unsafe.Sizeof(*i)) + 8*cap(i.blocks) + 4*cap(i.byJoin)
	for _, b := range i.blocks {
		total += int(unsafe.Sizeof(*b)) + int(unsafe.Sizeof(bitset.Set{}))*len(b.Branches) +
			8*(len(b.Inside)+len(b.region))
		if b.Kind != model.NodeLoopStart { // a loop's one branch is its Inside
			total += 8 * len(b.Inside) * len(b.Branches)
		}
	}
	return total
}

// Blocks returns all blocks ordered innermost-first (ascending size).
func (i *Info) Blocks() []*Block { return i.blocks }

// ByJoin returns the block closed by the given join node.
func (i *Info) ByJoin(join string) (*Block, bool) {
	n, ok := i.topo.Idx(join)
	if !ok {
		return nil, false
	}
	return i.ByJoinAt(n)
}

// ByJoinAt is ByJoin for a node already interned in Topology().
func (i *Info) ByJoinAt(join model.NodeIdx) (*Block, bool) {
	if k := i.byJoin[join]; k != 0 {
		return i.blocks[k-1], true
	}
	return nil, false
}

// BranchRef locates a node within a block: the block and branch index.
type BranchRef struct {
	Block  *Block
	Branch int
}

// Path returns the chain of blocks containing the node, outermost first,
// with the branch index the node occupies in each.
func (i *Info) Path(id string) []BranchRef {
	n, ok := i.topo.Idx(id)
	if !ok {
		return nil
	}
	var path []BranchRef
	for k := len(i.blocks) - 1; k >= 0; k-- { // blocks is innermost-first
		if b := i.blocks[k]; b.Inside.Has(int(n)) {
			br := slices.IndexFunc(b.Branches, func(s bitset.Set) bool { return s.Has(int(n)) })
			path = append(path, BranchRef{Block: b, Branch: br})
		}
	}
	return path
}

// Divergence finds the innermost block in which two nodes sit on different
// branches. ok is false if no such block exists (the nodes are ordered or
// identical with respect to block structure).
func (i *Info) Divergence(a, b string) (blk *Block, branchA, branchB int, ok bool) {
	pa, pb := i.Path(a), i.Path(b)
	for k := range min(len(pa), len(pb)) {
		if pa[k].Block != pb[k].Block {
			break
		}
		if pa[k].Branch != pb[k].Branch {
			// Block paths diverge at the first differing branch, so this
			// is the innermost such block.
			return pa[k].Block, pa[k].Branch, pb[k].Branch, true
		}
	}
	return nil, 0, 0, false
}
