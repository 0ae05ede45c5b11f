package verify

import (
	"sort"

	"adept2/internal/graph"
	"adept2/internal/model"
)

// checkDataFlow performs the buildtime data flow analysis: every mandatory
// input parameter (and every gateway decision element) must be *definitely
// written* on every execution path leading to the consumer — the paper's
// "erroneous data flows" / "missing data" guarantee. The analysis is a
// forward must-analysis over the acyclic control-flow graph:
//
//   - a node with a single control predecessor inherits its predecessor's
//     written set;
//   - an AND join takes the union of its branches (all of them execute);
//   - an XOR join takes the intersection (only one executes);
//   - loop bodies execute at least once (ADEPT loops are do-while), so the
//     body's writes are definite after the loop end.
//
// Sync edges additionally transport writes between parallel branches, but
// only when the source is *guaranteed* to execute whenever the target
// does (no XOR block diverges between them beyond the common path).
//
// The same pass emits warnings for racy parallel access: two unordered
// writers of one element (lost update) and unordered writer/reader pairs
// (unstable read).
func checkDataFlow(v model.SchemaView, info *graph.Info, r *Result) {
	order, err := graph.TopoOrder(v, graph.Control)
	if err != nil {
		return // structure errors already reported
	}

	writesOf := make(map[string][]string) // node -> elements written
	for _, de := range v.DataEdges() {
		if de.Access == model.Write {
			writesOf[de.Activity] = append(writesOf[de.Activity], de.Element)
		}
	}

	written := make(map[string]map[string]bool, len(order)) // node -> definitely-written set on entry
	outSet := func(id string) map[string]bool {
		in := written[id]
		ws := writesOf[id]
		if len(ws) == 0 {
			return in
		}
		out := make(map[string]bool, len(in)+len(ws))
		for e := range in {
			out[e] = true
		}
		for _, e := range ws {
			out[e] = true
		}
		return out
	}
	outCache := make(map[string]map[string]bool, len(order))

	for _, id := range order {
		n, _ := v.Node(id)
		preds := model.InControlEdges(v, id)
		var in map[string]bool
		switch {
		case len(preds) == 0:
			in = map[string]bool{}
		case len(preds) == 1:
			in = outCache[preds[0].From]
		default:
			if n.Type == model.NodeANDJoin {
				in = make(map[string]bool)
				for _, p := range preds {
					for e := range outCache[p.From] {
						in[e] = true
					}
				}
			} else {
				// XOR join (and any other multi-pred node): intersection.
				in = make(map[string]bool)
				for e := range outCache[preds[0].From] {
					all := true
					for _, p := range preds[1:] {
						if !outCache[p.From][e] {
							all = false
							break
						}
					}
					if all {
						in[e] = true
					}
				}
			}
		}
		written[id] = in
		outCache[id] = outSet(id)
	}

	// Validate consumers: mandatory reads and gateway decision elements.
	for _, id := range order {
		n, _ := v.Node(id)
		for _, de := range v.DataEdgesOf(id) {
			if de.Access != model.Read || !de.Mandatory {
				continue
			}
			if _, ok := v.DataElement(de.Element); !ok {
				continue // dangling reference reported elsewhere
			}
			if !suppliedAt(v, info, written, id, de.Element) {
				r.add(CodeMissingData, Error, []string{id},
					"activity %q reads element %q (parameter %q) but no writer is guaranteed on every path", id, de.Element, de.Parameter)
			}
		}
		if n.DecisionElement != "" {
			elem, ok := v.DataElement(n.DecisionElement)
			if !ok {
				r.add(CodeDecisionData, Error, []string{id},
					"node %q consults unknown decision element %q", id, n.DecisionElement)
				continue
			}
			if !suppliedAt(v, info, written, id, n.DecisionElement) {
				r.add(CodeMissingData, Error, []string{id},
					"node %q decides on element %q but no writer is guaranteed on every path", id, n.DecisionElement)
			}
			switch n.Type {
			case model.NodeXORSplit:
				if elem.Type != model.TypeInt {
					r.add(CodeDecisionData, Warning, []string{id},
						"xor split %q decision element %q has type %s, expected int", id, elem.ID, elem.Type)
				}
			case model.NodeLoopEnd:
				if elem.Type != model.TypeBool {
					r.add(CodeDecisionData, Warning, []string{id},
						"loop end %q decision element %q has type %s, expected bool", id, elem.ID, elem.Type)
				}
			}
		}
	}

	checkParallelAccess(v, info, r)
}

// suppliedAt reports whether the element is definitely written when the
// node starts: either on every control path (must-analysis) or through a
// guaranteed sync-edge supplier.
func suppliedAt(v model.SchemaView, info *graph.Info, written map[string]map[string]bool, node, elem string) bool {
	if written[node][elem] {
		return true
	}
	topo := v.Topology()
	i, _ := topo.Idx(node)
	for _, ei := range topo.At(i).InSyncIdx() {
		src := topo.EdgeAt(ei).From
		if !writesElement(v, src, elem) {
			continue
		}
		if syncGuaranteed(info, src, node) {
			return true
		}
	}
	return false
}

func writesElement(v model.SchemaView, node, elem string) bool {
	for _, de := range v.DataEdgesOf(node) {
		if de.Access == model.Write && de.Element == elem {
			return true
		}
	}
	return false
}

// syncGuaranteed reports whether the sync source executes whenever the
// target does: beyond the block path shared with the target, the source
// must sit only inside AND branches (never inside an XOR branch the
// target does not share).
func syncGuaranteed(info *graph.Info, src, dst string) bool {
	ps, pd := info.Path(src), info.Path(dst)
	common := 0
	for common < len(ps) && common < len(pd) &&
		ps[common].Block == pd[common].Block && ps[common].Branch == pd[common].Branch {
		common++
	}
	for _, ref := range ps[common:] {
		if ref.Block.Kind == model.NodeXORSplit {
			return false
		}
	}
	return true
}

// checkParallelAccess warns about unsynchronized concurrent access to the
// same data element from different branches of a parallel block.
func checkParallelAccess(v model.SchemaView, info *graph.Info, r *Result) {
	type access struct {
		node  string
		write bool
	}
	byElem := make(map[string][]access)
	for _, de := range v.DataEdges() {
		byElem[de.Element] = append(byElem[de.Element], access{node: de.Activity, write: de.Access == model.Write})
	}
	elems := make([]string, 0, len(byElem))
	for e := range byElem {
		elems = append(elems, e)
	}
	sort.Strings(elems)
	for _, elem := range elems {
		accs := byElem[elem]
		for i := 0; i < len(accs); i++ {
			for j := i + 1; j < len(accs); j++ {
				a, b := accs[i], accs[j]
				if !a.write && !b.write {
					continue // two reads never conflict
				}
				blk, _, _, diverge := info.Divergence(a.node, b.node)
				if !diverge || blk.Kind != model.NodeANDSplit {
					continue // ordered, exclusive, or same branch
				}
				// Parallel and potentially racy unless a sync path orders
				// them.
				if graph.HasPath(v, a.node, b.node, graph.ControlAndSync) ||
					graph.HasPath(v, b.node, a.node, graph.ControlAndSync) {
					continue
				}
				nodes := []string{a.node, b.node}
				sort.Strings(nodes)
				if a.write && b.write {
					r.add(CodeLostUpdate, Warning, nodes,
						"activities write element %q in unordered parallel branches (lost update)", elem)
				} else {
					r.add(CodeUnstableRead, Warning, nodes,
						"parallel unordered read/write of element %q (unstable read)", elem)
				}
			}
		}
	}
}
