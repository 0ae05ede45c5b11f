package graph

import (
	"fmt"
	"sort"
	"unsafe"

	"adept2/internal/bitset"
	"adept2/internal/model"
)

// Block describes one matched block of a block-structured schema: the
// split node, its matching join, and the nodes strictly inside, grouped by
// branch.
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
	Branches []map[string]bool
	// Inside is the union of all branches (strictly between split and
	// join).
	Inside map[string]bool

	// region caches Inside ∪ {Split, Join}; Analyze precomputes it so the
	// hot consumers of Region (history reduction, loop resets) pay no
	// per-call allocation.
	region map[string]bool
	// regionBits is the interned form of region: a bitset over the
	// analyzed view's NodeIdx space (see Info.Topology). Analyze
	// precomputes it; history reduction tests membership with one bit
	// probe instead of a string-map lookup per event.
	regionBits bitset.Set
}

// Contains reports whether the node lies inside the block, including the
// split and join themselves.
func (b *Block) Contains(id string) bool {
	return id == b.Split || id == b.Join || b.Inside[id]
}

// Region returns the block's node set including split and join. The
// returned map is shared and cached — callers must treat it as read-only.
func (b *Block) Region() map[string]bool {
	if b.region == nil {
		r := make(map[string]bool, len(b.Inside)+2)
		for id := range b.Inside {
			r[id] = true
		}
		r[b.Split] = true
		r[b.Join] = true
		b.region = r
	}
	return b.region
}

// BranchOf returns the index of the branch containing the node, or -1 if
// the node is not strictly inside the block.
func (b *Block) BranchOf(id string) int {
	for i, br := range b.Branches {
		if br[id] {
			return i
		}
	}
	return -1
}

// Info is the result of block-structure analysis of a schema view.
type Info struct {
	blocks  []*Block
	bySplit map[string]*Block
	byJoin  map[string]*Block

	// topo is the topology index of the analyzed view, captured so
	// consumers of the analysis (history reduction) can intern node IDs
	// against the same snapshot the block regions were computed on.
	topo *model.Topology
}

// Topology returns the topology index of the analyzed view. Block region
// bitsets (Block.RegionBits) are expressed in its NodeIdx space.
func (i *Info) Topology() *model.Topology { return i.topo }

// RegionBits returns the block's region as a bitset over the analyzed
// view's NodeIdx space: bit n is set iff the node with NodeIdx n lies in
// Region(). The returned slice is shared and precomputed — callers must
// treat it as read-only.
func (b *Block) RegionBits() bitset.Set { return b.regionBits }

// Analyze matches every split with its join, computes branch membership,
// and checks proper nesting. It fails if the control-edge graph is cyclic,
// a split has no matching join, branches overlap before the join, block
// boundaries are crossed by control edges, or blocks are not properly
// nested. The returned Info is consumed by the verifier (structural
// soundness), the engine (loop-body resets), the change framework
// (region checks for parallel insertion), and the storage layer (minimal
// substitution blocks).
func Analyze(v model.SchemaView) (*Info, error) {
	order, err := TopoOrder(v, Control)
	if err != nil {
		return nil, fmt.Errorf("graph: control flow not acyclic: %w", err)
	}
	pos := make(map[string]int, len(order))
	for i, id := range order {
		pos[id] = i
	}
	info := &Info{
		bySplit: make(map[string]*Block),
		byJoin:  make(map[string]*Block),
	}

	loopPairs, err := loopPairs(v)
	if err != nil {
		return nil, err
	}

	for _, id := range v.NodeIDs() {
		n, _ := v.Node(id)
		var b *Block
		switch n.Type {
		case model.NodeANDSplit, model.NodeXORSplit:
			b, err = matchSplit(v, n, pos)
		case model.NodeLoopStart:
			end, ok := loopPairs[id]
			if !ok {
				return nil, fmt.Errorf("graph: loop start %q has no loop edge", id)
			}
			b, err = matchLoop(v, id, end)
		default:
			continue
		}
		if err != nil {
			return nil, err
		}
		info.blocks = append(info.blocks, b)
		info.bySplit[b.Split] = b
		if prev, dup := info.byJoin[b.Join]; dup {
			return nil, fmt.Errorf("graph: join %q closes both %q and %q", b.Join, prev.Split, b.Split)
		}
		info.byJoin[b.Join] = b
	}

	// Every join must be matched by exactly one split.
	for _, id := range v.NodeIDs() {
		n, _ := v.Node(id)
		if n.Type.IsJoin() {
			if _, ok := info.byJoin[id]; !ok {
				return nil, fmt.Errorf("graph: join %q has no matching split", id)
			}
		}
	}

	// Precompute every block's region — and its interned bitset — before
	// the Info escapes: the cache fills must not race when migration
	// workers share one Info.
	info.topo = v.Topology()
	for _, b := range info.blocks {
		bits := bitset.New(info.topo.NumNodes())
		for id := range b.Region() {
			if n, ok := info.topo.Idx(id); ok {
				bits.Set(int(n))
			}
		}
		b.regionBits = bits
	}

	if err := checkNesting(info.blocks); err != nil {
		return nil, err
	}

	// Sort blocks by region size ascending so that the first containing
	// block found is the innermost one.
	sort.SliceStable(info.blocks, func(i, j int) bool {
		return len(info.blocks[i].Inside) < len(info.blocks[j].Inside)
	})
	return info, nil
}

func loopPairs(v model.SchemaView) (map[string]string, error) {
	pairs := make(map[string]string)
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
	}
	// Every loop end must source exactly one loop edge.
	ends := make(map[string]bool)
	for _, le := range pairs {
		if ends[le] {
			return nil, fmt.Errorf("graph: loop end %q sources multiple loop edges", le)
		}
		ends[le] = true
	}
	for _, id := range v.NodeIDs() {
		n, _ := v.Node(id)
		switch n.Type {
		case model.NodeLoopEnd:
			if !ends[id] {
				return nil, fmt.Errorf("graph: loop end %q has no loop edge", id)
			}
		}
	}
	return pairs, nil
}

func matchSplit(v model.SchemaView, split *model.Node, pos map[string]int) (*Block, error) {
	join, _ := split.Type.MatchingJoin()
	outs := model.OutControlEdges(v, split.ID)
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

	// Reach sets per branch, never passing through the split again (the
	// control graph is acyclic, so that cannot happen anyway).
	reach := make([]map[string]bool, len(outs))
	for i, e := range outs {
		reach[i] = Reachable(v, e.To, Control, true)
	}
	// The matching join is the topologically first node common to all
	// branches.
	joinID := ""
	joinPos := -1
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

	b := &Block{Split: split.ID, Join: joinID, Kind: split.Type, Inside: make(map[string]bool)}
	for i := range outs {
		branch := make(map[string]bool)
		for id := range reach[i] {
			if pos[id] < joinPos {
				branch[id] = true
			}
		}
		b.Branches = append(b.Branches, branch)
		for id := range branch {
			if b.Inside[id] {
				return nil, fmt.Errorf("graph: split %q: node %q belongs to multiple branches", split.ID, id)
			}
			b.Inside[id] = true
		}
	}
	if err := checkBoundary(v, b); err != nil {
		return nil, err
	}
	return b, nil
}

func matchLoop(v model.SchemaView, start, end string) (*Block, error) {
	fwd := Reachable(v, start, Control, true)
	back := Reachable(v, end, Control, false)
	if !fwd[end] {
		return nil, fmt.Errorf("graph: loop start %q does not reach its loop end %q", start, end)
	}
	body := make(map[string]bool)
	for id := range fwd {
		if back[id] && id != start && id != end {
			body[id] = true
		}
	}
	b := &Block{Split: start, Join: end, Kind: model.NodeLoopStart, Branches: []map[string]bool{body}, Inside: body}
	if err := checkBoundary(v, b); err != nil {
		return nil, err
	}
	return b, nil
}

// checkBoundary verifies the block region is single-entry single-exit with
// respect to control edges: interior nodes connect only within the region.
func checkBoundary(v model.SchemaView, b *Block) error {
	for id := range b.Inside {
		for _, e := range v.InEdges(id) {
			if e.Type != model.EdgeControl {
				continue
			}
			if !b.Inside[e.From] && e.From != b.Split {
				return fmt.Errorf("graph: block %q..%q: control edge %s enters the block from outside", b.Split, b.Join, e)
			}
		}
		for _, e := range v.OutEdges(id) {
			if e.Type != model.EdgeControl {
				continue
			}
			if !b.Inside[e.To] && e.To != b.Join {
				return fmt.Errorf("graph: block %q..%q: control edge %s leaves the block before the join", b.Split, b.Join, e)
			}
		}
	}
	return nil
}

// checkNesting verifies that block regions are pairwise disjoint or
// properly contained in one another.
func checkNesting(blocks []*Block) error {
	for i := 0; i < len(blocks); i++ {
		for j := i + 1; j < len(blocks); j++ {
			a, b := blocks[i], blocks[j]
			ra, rb := a.Region(), b.Region()
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
			// Containment: the inner block's region (minus its boundary
			// nodes shared with the outer one) must lie inside the outer.
			if aInB == len(ra) || bInA == len(rb) {
				continue
			}
			return fmt.Errorf("graph: blocks %q..%q and %q..%q overlap without nesting", a.Split, a.Join, b.Split, b.Join)
		}
	}
	return nil
}

// ApproxBytes returns the memory the analysis holds beside the topology it
// points to: the block records with their node sets and the two lookup
// maps, each map from its entry count.
func (i *Info) ApproxBytes() int {
	total := int(unsafe.Sizeof(*i)) + 8*cap(i.blocks) +
		model.StringMapBytes(len(i.bySplit)) + model.StringMapBytes(len(i.byJoin))
	for _, b := range i.blocks {
		total += int(unsafe.Sizeof(*b)) + 8*cap(b.Branches) + 8*cap(b.regionBits) +
			model.StringMapBytes(len(b.region))
		if b.Kind != model.NodeLoopStart { // a loop's one branch is its Inside
			total += model.StringMapBytes(len(b.Inside))
		}
		for _, br := range b.Branches {
			total += model.StringMapBytes(len(br))
		}
	}
	return total
}

// Blocks returns all blocks ordered innermost-first (ascending region
// size).
func (i *Info) Blocks() []*Block { return i.blocks }

// BySplit returns the block opened by the given split node.
func (i *Info) BySplit(split string) (*Block, bool) {
	b, ok := i.bySplit[split]
	return b, ok
}

// ByJoin returns the block closed by the given join node.
func (i *Info) ByJoin(join string) (*Block, bool) {
	b, ok := i.byJoin[join]
	return b, ok
}

// InnermostContaining returns the smallest block strictly containing the
// node, or nil if the node lies at the top level.
func (i *Info) InnermostContaining(id string) *Block {
	for _, b := range i.blocks { // innermost-first order
		if b.Inside[id] {
			return b
		}
	}
	return nil
}

// BranchRef locates a node within a block: the block and branch index.
type BranchRef struct {
	Block  *Block
	Branch int
}

// Path returns the chain of blocks containing the node, outermost first,
// with the branch index the node occupies in each.
func (i *Info) Path(id string) []BranchRef {
	var path []BranchRef
	for _, b := range i.blocks {
		if b.Inside[id] {
			path = append(path, BranchRef{Block: b, Branch: b.BranchOf(id)})
		}
	}
	// blocks is innermost-first; reverse into outermost-first.
	for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
		path[l], path[r] = path[r], path[l]
	}
	return path
}

// Divergence finds the innermost block in which two nodes sit on different
// branches. ok is false if no such block exists (the nodes are ordered or
// identical with respect to block structure).
func (i *Info) Divergence(a, b string) (blk *Block, branchA, branchB int, ok bool) {
	pa, pb := i.Path(a), i.Path(b)
	n := len(pa)
	if len(pb) < n {
		n = len(pb)
	}
	for k := 0; k < n; k++ {
		if pa[k].Block != pb[k].Block {
			break
		}
		if pa[k].Branch != pb[k].Branch {
			blk, branchA, branchB, ok = pa[k].Block, pa[k].Branch, pb[k].Branch, true
			// Keep scanning: a deeper common block with differing branches
			// would be more precise, but block paths diverge at the first
			// differing branch, so this is the innermost one.
			return
		}
	}
	return nil, 0, 0, false
}

// MinimalRegion returns the smallest block whose region contains all the
// given nodes, or nil if only the whole schema does. It computes the
// "minimal substitution block" of the paper's hybrid storage
// representation (Fig. 2).
func (i *Info) MinimalRegion(ids []string) *Block {
	for _, b := range i.blocks { // innermost-first
		all := true
		for _, id := range ids {
			if !b.Contains(id) {
				all = false
				break
			}
		}
		if all {
			return b
		}
	}
	return nil
}
