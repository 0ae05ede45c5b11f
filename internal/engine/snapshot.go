package engine

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"adept2/internal/data"
	"adept2/internal/graph"
	"adept2/internal/history"
	"adept2/internal/model"
	"adept2/internal/state"
	"adept2/internal/worklist"
)

// InstanceSnapshot is the engine-level serialized state of one instance:
// everything needed to rebuild it without replaying its command history.
// Markings and stats are exported in their stable ID-keyed form, so the
// snapshot survives the topology rebuild that deserializing the schema
// implies. The instance's bias is not part of it: Snapshot returns the
// recorded operations beside it, and RestoreInstance takes them back, so
// the caller encodes them (the change package owns the operation codec).
type InstanceSnapshot struct {
	ID       string `json:"id"`
	TypeName string `json:"type"`
	Version  int    `json:"version"`
	// Strategy is written as 0 and read for nothing: it named one of three
	// biased-instance representations, and an instance restores as the
	// one there is, rebuilt from its bias, whatever value it holds.
	Strategy   uint8          `json:"strategy"`
	Done       bool           `json:"done,omitempty"`
	Suspended  bool           `json:"suspended,omitempty"`
	Migrations int            `json:"migrations,omitempty"`
	LoopIter   map[string]int `json:"loopIter,omitempty"`
	// Exception state (armed absolute deadlines, retry due times,
	// consecutive-failure counts, escalated nodes, pending policy
	// compensations), all keyed by node ID: the instance's ExceptionState
	// records, a member per field. Deadlines survive the snapshot verbatim
	// so recovery re-arms them exactly once.
	Deadlines   map[string]int64     `json:"deadlines,omitempty"`
	RetryAt     map[string]int64     `json:"retryAt,omitempty"`
	Failures    map[string]int       `json:"failures,omitempty"`
	Escalated   []string             `json:"escalated,omitempty"`
	CompPending []string             `json:"compPending,omitempty"`
	Marking     *state.MarkingExport `json:"marking"`
	Stats       []history.StatExport `json:"stats,omitempty"`
	History     *history.Log         `json:"history"`
	Store       *data.Store          `json:"data"`
}

// Snapshot exports the instance state under its lock, and beside it a
// copy of the recorded bias operations. A sealed instance exports the
// marking, execution index and loop counts its history derives.
func (inst *Instance) Snapshot() (*InstanceSnapshot, []BiasOp) {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	r := inst.runLocked()
	snap := &InstanceSnapshot{
		ID:         inst.id,
		TypeName:   inst.typeName,
		Version:    inst.base.Schema.Version(),
		Done:       inst.done,
		Suspended:  inst.suspended,
		Migrations: inst.migrations,
		LoopIter:   copyIntMap(r.loopIter),
		Marking:    r.marking.Export(&r.stats),
		Stats:      r.stats.Export(),
		History:    inst.hist.Clone(),
		Store:      inst.store.Clone(),
	}
	for id, x := range r.exceptions {
		if x.Armed {
			snap.Deadlines = put(snap.Deadlines, id, x.Deadline)
		}
		if x.RetryAt != 0 {
			snap.RetryAt = put(snap.RetryAt, id, x.RetryAt)
		}
		if x.Failures != 0 {
			snap.Failures = put(snap.Failures, id, x.Failures)
		}
		if x.Escalated {
			snap.Escalated = append(snap.Escalated, id)
		}
		if x.Pending {
			snap.CompPending = append(snap.CompPending, id)
		}
	}
	sort.Strings(snap.Escalated)
	sort.Strings(snap.CompPending)
	return snap, append([]BiasOp(nil), inst.biasOps...)
}

// put sets m[k] to v, making m when it is nil.
func put[V any](m map[string]V, k string, v V) map[string]V {
	if m == nil {
		m = make(map[string]V)
	}
	m[k] = v
	return m
}

func copyIntMap(m map[string]int) map[string]int {
	if len(m) == 0 {
		return nil
	}
	c := make(map[string]int, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// RestoreInstance rebuilds an instance from a snapshot: the referenced
// schema version must already be deployed, the decoded bias builds the
// instance's overlay (BuildOverlay) and the view's analysis, and markings,
// stats, history, data, and flags are installed verbatim. A finished
// instance is restored sealed: its marking, stats, loop counts and
// exception state are what its history derives, and the stored ones are
// not read. The worklist is NOT reconciled: callers restore worklist items
// wholesale, each with the candidates it was offered to.
func (e *Engine) RestoreInstance(snap *InstanceSnapshot, bias []BiasOp) error {
	e.mu.Lock()
	inst, err := e.registerLocked(snap.ID, snap.TypeName, snap.Version, !snap.Done)
	e.mu.Unlock()
	if err != nil {
		// %v: a snapshot that names a missing schema or a taken ID is a
		// broken snapshot, not a caller's not-found or conflict.
		return fmt.Errorf("engine: restore %s: %v", snap.ID, err)
	}

	inst.mu.Lock()
	defer inst.mu.Unlock()
	if len(bias) > 0 {
		ov, err := BuildOverlay(inst.base.Schema, bias)
		if err != nil {
			return fmt.Errorf("engine: restore %s: re-apply bias: %w", snap.ID, err)
		}
		info, err := graph.Analyze(ov)
		if err != nil {
			return fmt.Errorf("engine: restore %s: %w", snap.ID, err)
		}
		(&Mutable{inst: inst}).SetBias(ov, info, bias)
	}
	v, _ := inst.viewLocked()
	if r := inst.run; r != nil {
		// The marking and the index are filled where newInstance put them:
		// pointing the instance at new ones would keep those alive beside
		// them.
		if err := r.marking.Import(v, snap.Marking); err != nil {
			return fmt.Errorf("engine: restore %s: %w", snap.ID, err)
		}
		r.stats.Import(v.Topology(), snap.Stats)
		r.loopIter = snap.LoopIter
		// The five members are folded into one record per node.
		set := func(id string, f func(*ExceptionState)) {
			x := r.exceptions[id]
			f(&x)
			r.setException(id, x)
		}
		for id, dl := range snap.Deadlines {
			set(id, func(x *ExceptionState) { x.Deadline, x.Armed = dl, true })
		}
		for id, at := range snap.RetryAt {
			set(id, func(x *ExceptionState) { x.RetryAt = at })
		}
		for id, n := range snap.Failures {
			set(id, func(x *ExceptionState) { x.Failures = n })
		}
		for _, id := range snap.Escalated {
			set(id, func(x *ExceptionState) { x.Escalated = true })
		}
		for _, id := range snap.CompPending {
			set(id, func(x *ExceptionState) { x.Pending = true })
		}
	}
	if snap.History != nil {
		inst.hist = *snap.History.In(e.syms)
	}
	if snap.Store != nil {
		inst.store = *snap.Store
	}
	// The decoded store and bindings hold copies of the schema's node and
	// element IDs, and each binding a copy of the value the store holds:
	// sharing them makes a restored instance hold what a live one holds. A
	// start binds a read under its edge's parameter, not the element, and
	// keeps the schema's parameter string.
	topo := v.Topology()
	canon := func(id string) string {
		if i, ok := topo.Idx(id); ok {
			return topo.ID(i)
		}
		if d, ok := inst.base.Schema.DataElement(id); ok {
			return d.ID
		}
		return id
	}
	inst.store.Share(canon)
	inst.hist.ShareBindings(func(ev *history.Event, b *data.Binding) {
		b.Name = canon(b.Name)
		elem := b.Name
		for _, de := range v.DataEdgesOf(ev.Node) {
			if ev.Kind == history.Started && de.Access == model.Read && de.Parameter == b.Name {
				b.Name, elem = de.Parameter, de.Element
			}
		}
		b.Value = inst.store.Held(elem, b.Value)
	})
	inst.done = snap.Done
	inst.suspended = snap.Suspended
	inst.migrations = snap.Migrations
	return nil
}

// RestoreWorklist replaces the worklist with an exported one once the
// instances are restored, giving each item the strings a live offer keeps:
// the instance's ID, its view's node ID and role, and the organizational
// model's candidate list for the role when the item was offered exactly it.
func (e *Engine) RestoreWorklist(ex *worklist.ManagerExport) error {
	return e.wl.Import(ex, func(it *worklist.Item) {
		if inst, ok := e.Instance(it.Instance); ok {
			inst.mu.Lock()
			v, _ := inst.viewLocked()
			if n, ok := v.Node(it.Node); ok && n.Role == it.Role {
				it.Node, it.Role = n.ID, n.Role
			}
			inst.mu.Unlock()
			it.Instance = inst.id
		}
		if users := e.org.UsersInRole(it.Role); slices.Equal(users, it.Offered) {
			it.Offered = users
		}
	})
}

// AllSchemas returns every deployed schema, ordered by type name then
// version — the deterministic deploy order a snapshot records.
func (e *Engine) AllSchemas() []*model.Schema {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := []*model.Schema{}
	for _, t := range e.typesLocked() {
		for _, d := range e.types[t] {
			out = append(out, d.Schema)
		}
	}
	return out
}

// InstanceCounter returns the instance-ID counter (the numeric suffix of
// the most recently created instance).
func (e *Engine) InstanceCounter() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.nextID
}

// SetInstanceCounter restores the instance-ID counter so instances created
// after recovery continue the pre-crash numbering.
func (e *Engine) SetInstanceCounter(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n > e.nextID {
		e.nextID = n
	}
}

// SortInstanceOrder sorts the order by instance key (CompareInstanceIDs).
// Recovery calls this once at the end: sharded recovery restores and
// replays shards concurrently, and even a single journal records
// concurrent creates in append order, not engine-apply (ID-assignment)
// order — either way instances arrive out of ID order, and the listing
// must not depend on which path built it. A live engine keeps the order
// sorted itself (readOrder).
func (e *Engine) SortInstanceOrder() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sortOrderLocked()
}

// sortOrderLocked sorts the order. Every suffix is parsed once, into a key
// slice that is what gets sorted: parsing inside the comparator was 5 % of
// a 27 500-instance recovery.
func (e *Engine) sortOrderLocked() {
	type key struct {
		inst *Instance
		idNumber
	}
	keys := make([]key, len(e.order))
	for i, inst := range e.order {
		keys[i] = key{inst, numberOf(inst.id)}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := compareIDs(a.inst.id, b.inst.id, a.idNumber, b.idNumber); c != 0 {
			return c
		}
		return cmp.Compare(a.inst.pos, b.inst.pos) // one number spelled two ways: kept in order, as a stable sort would
	})
	for i, k := range keys {
		e.order[i] = k.inst
		k.inst.pos = int32(i)
	}
	e.unsorted = false
}

// idNumber is an instance ID's number, if the engine assigned the ID.
type idNumber struct {
	n      int
	engine bool // the ID is engine-style and n its number
}

func numberOf(id string) idNumber {
	n, ok := instanceNumber(id)
	return idNumber{n, ok}
}

// CompareInstanceIDs orders two instance IDs by key, the order of
// Instances on a live engine and on its recovery: an
// engine-assigned ID (inst-%d) by its number — the %06d padding alone
// would misorder lexicographically past a million instances — before
// every foreign ID, those in string order. For engine-assigned IDs it is
// creation order. Where SortInstanceOrder keeps one number spelled two
// ways ("inst-5", "inst-05") in the order it found them, this orders them
// as strings, so that the order is total.
func CompareInstanceIDs(a, b string) int {
	return cmp.Or(compareIDs(a, b, numberOf(a), numberOf(b)), strings.Compare(a, b))
}

// compareIDs orders two IDs by key given their numbers; one number
// spelled two ways ties.
func compareIDs(a, b string, na, nb idNumber) int {
	switch {
	case na.engine && nb.engine:
		return cmp.Compare(na.n, nb.n)
	case na.engine != nb.engine:
		if na.engine {
			return -1 // engine-assigned IDs before foreign ones
		}
		return 1
	}
	return strings.Compare(a, b)
}

// instanceNumber parses the numeric suffix of an engine-style instance ID:
// "inst-", an optional sign, decimal digits; whatever follows the digits
// is ignored and a number that overflows int is no number — the reading
// fmt.Sscanf(id, "inst-%d", &n) gave, which this replaces on the recovery
// path (one call per replayed create, two per comparison of the sort).
func instanceNumber(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "inst-")
	if !ok {
		return 0, false
	}
	end := 0
	if end < len(rest) && (rest[end] == '+' || rest[end] == '-') {
		end++
	}
	for end < len(rest) && '0' <= rest[end] && rest[end] <= '9' {
		end++
	}
	n, err := strconv.Atoi(rest[:end])
	if err != nil {
		return 0, false
	}
	return n, true
}
