// Package graph provides the graph algorithms used across ADEPT2:
// topological ordering, reachability, and block-structure analysis
// (matching split/join pairs, branch membership, proper nesting). All
// algorithms operate on model.SchemaView so they work identically on plain
// schemas and on biased-instance overlays.
package graph

import (
	"fmt"
	"sort"

	"adept2/internal/model"
)

// EdgeFilter selects the edges an algorithm traverses.
type EdgeFilter func(*model.Edge) bool

// Control selects control edges only. Loop edges are excluded, so the
// resulting graph of a correct schema is acyclic.
func Control(e *model.Edge) bool { return e.Type == model.EdgeControl }

// ControlAndSync selects control and sync edges; this is the graph the
// deadlock check must find acyclic (sync edges may not induce cycles —
// the deadlock-causing-cycle criterion of the paper).
func ControlAndSync(e *model.Edge) bool {
	return e.Type == model.EdgeControl || e.Type == model.EdgeSync
}

// TopoOrder returns a topological order of all nodes over the filtered
// edges. If the filtered graph contains a cycle, it returns an error
// naming the nodes on the residual cycle.
func TopoOrder(v model.SchemaView, filter EdgeFilter) ([]string, error) {
	topo := v.Topology()
	order, err := topoOrder(topo, filter)
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(order))
	for k, i := range order {
		ids[k] = topo.ID(i)
	}
	return ids, nil
}

// topoOrder is TopoOrder over the topology's node indices. The queue is
// deterministic: ready nodes in view order, first in, first out, each
// node's edges by type in view order.
func topoOrder(topo *model.Topology, filter EdgeFilter) ([]model.NodeIdx, error) {
	n, visible := topo.NumNodes(), 0
	indeg := make([]int32, n)
	order := make([]model.NodeIdx, 0, n)
	succ := func(i model.NodeIdx, visit func(model.NodeIdx)) {
		nt := topo.At(i)
		for _, out := range [...][]model.EdgeIdx{nt.OutControlIdx(), nt.OutSyncIdx(), nt.OutLoopIdx()} {
			for _, ei := range out {
				if t := topo.EdgeTarget(ei); t != model.InvalidNode && filter(topo.EdgeAt(ei)) {
					visit(t)
				}
			}
		}
	}
	for i := range model.NodeIdx(n) {
		if !topo.Hidden(i) {
			visible++
			succ(i, func(t model.NodeIdx) { indeg[t]++ })
		}
	}
	for i := range model.NodeIdx(n) {
		if indeg[i] == 0 && !topo.Hidden(i) {
			order = append(order, i)
		}
	}
	for head := 0; head < len(order); head++ {
		succ(order[head], func(t model.NodeIdx) {
			if indeg[t]--; indeg[t] == 0 {
				order = append(order, t)
			}
		})
	}
	if len(order) != visible {
		var cyc []string
		for i, d := range indeg {
			if d > 0 {
				cyc = append(cyc, topo.ID(model.NodeIdx(i)))
			}
		}
		sort.Strings(cyc)
		return nil, fmt.Errorf("graph: cycle involving nodes %v", cyc)
	}
	return order, nil
}

// Reachable returns the set of nodes reachable from the given node over
// the filtered edges. With forward=false it follows edges backwards.
// The start node itself is included.
func Reachable(v model.SchemaView, from string, filter EdgeFilter, forward bool) map[string]bool {
	topo := v.Topology()
	seen := map[string]bool{from: true}
	walk(topo, from, filter, forward, func(i model.NodeIdx) bool {
		seen[topo.ID(i)] = true
		return true
	})
	return seen
}

// HasPath reports whether a path from one node to another exists over the
// filtered edges. A node trivially has a path to itself.
func HasPath(v model.SchemaView, from, to string, filter EdgeFilter) bool {
	if from == to {
		return true
	}
	topo := v.Topology()
	target, ok := topo.Idx(to)
	found := false
	if ok {
		walk(topo, from, filter, true, func(i model.NodeIdx) bool {
			found = i == target
			return !found
		})
	}
	return found
}

// walk is a depth-first search of the view's index from a node over the
// filtered edges, forward or backward: it calls visit once on every node
// it reaches, and stops when visit returns false.
func walk(topo *model.Topology, from string, filter EdgeFilter, forward bool, visit func(model.NodeIdx) bool) {
	i, ok := topo.Idx(from)
	if !ok {
		return
	}
	seen := make([]bool, topo.NumNodes())
	seen[i] = true
	for stack := []model.NodeIdx{i}; len(stack) > 0; {
		nt := topo.At(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		lists := [...][]model.EdgeIdx{nt.OutControlIdx(), nt.OutSyncIdx(), nt.OutLoopIdx()}
		if !forward {
			lists = [...][]model.EdgeIdx{nt.InControlIdx(), nt.InSyncIdx(), nt.InLoopIdx()}
		}
		for _, list := range lists {
			for _, ei := range list {
				e := topo.EdgeAt(ei)
				if !filter(e) {
					continue
				}
				next := topo.EdgeTarget(ei)
				if !forward {
					next, _ = topo.Idx(e.From)
				}
				if seen[next] {
					continue
				}
				if !visit(next) {
					return
				}
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
}
