package state

import (
	"fmt"

	"adept2/internal/history"
	"adept2/internal/model"
)

// ExportedNode is the stable serialized state of one node: keyed by node
// ID, not by the dense index, so an export survives topology rebinds
// (snapshots are restored against freshly built topologies whose interning
// order may differ). SkipSeq is written from SkipSeqAt for readers of the
// snapshot; Import ignores it, because the restored execution index
// derives it again.
type ExportedNode struct {
	ID      string `json:"id"`
	State   uint8  `json:"state"`
	SkipSeq int32  `json:"skipSeq,omitempty"`
}

// ExportedEdge is the stable serialized state of one edge, keyed by the
// edge's (from, to, type) identity.
type ExportedEdge struct {
	From  string `json:"from"`
	To    string `json:"to"`
	Type  uint8  `json:"type"`
	State uint8  `json:"state"`
}

// MarkingExport is the topology-independent serialized form of a Marking.
// Only non-default entries are recorded, so exports stay proportional to
// instance progress, not view size. Pending worklist entries (nodes queued
// for re-examination) are included so a marking snapshotted mid-cascade
// replays identically — at command boundaries the list is empty.
type MarkingExport struct {
	Nodes   []ExportedNode `json:"nodes,omitempty"`
	Edges   []ExportedEdge `json:"edges,omitempty"`
	Pending []string       `json:"pending,omitempty"`
}

// Export serializes the marking into its stable, ID-keyed form; stats is
// the instance's execution index, which dates its skipped nodes.
func (m *Marking) Export(stats *history.Stats) *MarkingExport {
	ex := &MarkingExport{}
	for i := range m.nodes {
		if m.nodes[i] == NotActivated {
			continue
		}
		ex.Nodes = append(ex.Nodes, ExportedNode{
			ID:      m.topo.ID(model.NodeIdx(i)),
			State:   uint8(m.nodes[i]),
			SkipSeq: int32(m.SkipSeqAt(model.NodeIdx(i), stats)),
		})
	}
	for i := range m.edges {
		if m.edges[i] == NotSignaled {
			continue
		}
		e := m.topo.EdgeAt(model.EdgeIdx(i))
		ex.Edges = append(ex.Edges, ExportedEdge{
			From:  e.From,
			To:    e.To,
			Type:  uint8(e.Type),
			State: uint8(m.edges[i]),
		})
	}
	for _, pi := range m.pending {
		ex.Pending = append(ex.Pending, m.topo.ID(pi))
	}
	return ex
}

// Import resets the marking to the given view (Reset) and fills it from
// its exported form. Every exported node and edge must exist in the view —
// a mismatch means the snapshot does not belong to this schema and is an
// error, never a silent drop.
func (m *Marking) Import(v model.SchemaView, ex *MarkingExport) error {
	m.Reset(v)
	for _, n := range ex.Nodes {
		i, ok := m.topo.Idx(n.ID)
		if !ok {
			return fmt.Errorf("state: import marking: node %q not in schema", n.ID)
		}
		m.nodes[i] = NodeState(n.State)
	}
	for _, e := range ex.Edges {
		i, ok := m.topo.EdgeIdxOf(model.EdgeKey{From: e.From, To: e.To, Type: model.EdgeType(e.Type)})
		if !ok {
			return fmt.Errorf("state: import marking: edge %s->%s not in schema", e.From, e.To)
		}
		m.edges[i] = EdgeState(e.State)
	}
	for _, id := range ex.Pending {
		i, ok := m.topo.Idx(id)
		if !ok {
			return fmt.Errorf("state: import marking: pending node %q not in schema", id)
		}
		m.markPendingAt(i)
	}
	return nil
}
