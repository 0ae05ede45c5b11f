// Package model defines the ADEPT2 process meta model: block-structured
// process schemas (WSM nets) consisting of activity and gateway nodes,
// control edges, sync edges (cross-branch ordering constraints inside
// parallel blocks), loop edges, and explicit data flow (typed data elements
// connected to activities through read/write data edges).
//
// A Schema is the buildtime artifact. All consumers (the verifier, the
// execution engine, the change framework, the compliance checker) operate
// on the read-only SchemaView interface so that biased instances can
// substitute an overlay view (see internal/storage) without materializing
// a full per-instance schema copy — the hybrid representation of Fig. 2 of
// the ADEPT2 paper.
//
// # Topology index invariants
//
// Every SchemaView exposes a precomputed Topology: per-node adjacency
// lists split by edge type plus derived node lists (auto-executable
// nodes, manual activities). The index is the view's only adjacency — a
// view keeps no second copy of who connects to whom, and every reader
// (the graph walks, the verifier, the change operations, the monitor, the
// engine) reads the typed lists. The adjacency is one arena: a single array of
// edge indices holds every list of every node back to back (in a patch,
// of every node the delta touches; the others' are the base's), an offset
// table says where each list starts, and the NodeTopology handle At
// returns slices the arena per call — no slice header and no allocation
// per list. The index obeys the following invariants, which the marking
// evaluator (internal/state), the engine cascade, and the compliance
// replayer rely on:
//
//   - Completeness: Topology().Idx(id) succeeds exactly for the IDs in
//     NodeIDs() and returns a visible index; the visible indices in
//     ascending order are NodeIDs(), and At(i).Node() is the same *Node
//     that Node(id) returns.
//   - Partition: the six typed lists of a node partition the edges of
//     Edges() incident to it by direction and EdgeType — every edge
//     appears in exactly one out list of its source and one in list of its
//     target — each list in Edges() order, and EdgeAt returns the *Edge
//     pointers of Edges() (no copies). No list holds a hidden edge.
//   - Derived lists: AutoExecutableIdx() holds exactly the nodes with
//     CanAutoExecute() true, ManualActivitiesIdx() exactly the non-Auto
//     NodeActivity nodes, both in NodeIDs() order.
//   - Keyed edge lookup: EdgeIdxOf scans the source node's out list of the
//     key's type; there is no edge-key map. It serves the marking remap,
//     the snapshot import and the keyed Marking accessors, none of them on
//     the per-command path.
//   - Coherence: the index is invalidated by every structural mutation
//     (node/edge add, remove, replace). *Schema clears its cache slot on
//     mutation and rebuilds on demand (safe under concurrent readers: the
//     slot is atomic and the build idempotent); the storage overlay drops
//     its index the same way. A *Topology held across a mutation of its
//     view is stale — re-fetch it instead. Data elements and data edges do
//     not affect the index (the per-activity data-edge lists are
//     maintained separately by DataEdgesOf).
//   - Immutability: accessor results alias the arena read-only (they are
//     capped, so an append copies); one Topology is shared by every
//     concurrent reader of a deployed schema.
//
// # Interning invariants
//
// The Topology doubles as the view's node/edge interner: every node owns a
// dense NodeIdx and every edge a dense EdgeIdx. A built topology
// (BuildTopology, which indexes every Schema) numbers the nodes of
// NodeIDs() and the edges of Edges() from 0 with no gaps. The overlay of a
// biased instance (internal/storage) indexes its view as a patch of its
// base schema's topology (Topology.Patch): a patch shares its base's
// indices and hides some. Every base node and edge the delta keeps keeps
// its base index; the ones it removes or replaces are hidden (Hidden,
// EdgeHidden); the nodes and edges it adds, re-adds or replaces are
// appended after the base's, in the order the delta made them. The patch
// holds only the appended records, the lists of the nodes the delta
// touches and what the delta changes of the derived lists; everything else
// it reads from the base. Consumers that index per-instance state by these
// indices (internal/state.Marking, internal/history.Stats, the compliance
// replayer's scratch) rely on:
//
//   - Hidden indices: every index below NumNodes()/NumEdges() names a node
//     or edge of the view unless it is hidden. Idx never returns a hidden
//     index, no list holds one, and every walk over 0..NumNodes() or
//     0..NumEdges() skips them. State arrays are sized by NumNodes() and
//     NumEdges(), and a hidden index's entry stays in its zero state.
//   - Index validity window: a NodeIdx/EdgeIdx is meaningful for the
//     *Topology value that assigned it, and below the base's counts for
//     the base and every patch of it (SharedPrefix). The window closes when
//     the view's Topology() returns a different pointer — i.e. at the next
//     structural mutation (of a Schema or of an overlay's delta). Past the
//     shared prefix, and between topologies of different bases, only the
//     string IDs are stable identity.
//   - Remap-on-refresh: state keyed by interned indices must be remapped
//     when the topology pointer changes. The marking does this
//     transparently — every view-taking entry point of internal/state
//     compares the bound topology pointer against v.Topology() and moves
//     node states, edge signals, and the pending worklist: an index in the
//     shared prefix that the new topology does not hide keeps its entry in
//     place, every other entry moves by identity; states of nodes/edges
//     absent from the new topology are dropped, new ones start in their
//     zero state. history.Stats follows the same rule via Rebind, which
//     the engine calls in one place, before anything reads the index after
//     a view change (engine.Mutable.AdaptState); it keeps no record of a
//     node its topology lacks and refuses a read against another. The overlay
//     triggers this by dropping its Topology on every node or edge
//     mutation, so a bias that alters the node set is patched anew and
//     every bound consumer remaps on next contact.
//   - Order preservation: visible indices order exactly like view order
//     (NodeIdx ascending == NodeIDs order), so sorting activation sets by
//     index reproduces the deterministic schema order the string API
//     promised.
package model
