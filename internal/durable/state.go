package durable

import (
	"fmt"
	"reflect"

	"adept2/internal/change"
	"adept2/internal/engine"
	"adept2/internal/model"
	"adept2/internal/org"
	"adept2/internal/worklist"
)

// FormatVersion is the snapshot payload format this build writes and
// accepts. Recovery treats any other version as skew and falls back.
const FormatVersion = 1

// SystemState is the engine state a checkpoint persists: everything Open
// needs to resume without replaying the journal prefix the snapshot
// covers. Stage takes it under the facade's snapshot barrier as clones
// (users, per-instance facets) and references to what never changes once
// recorded (deployed schemas, bias operations), Split partitions it per
// shard, SnapshotStore.Write encodes it outside the barrier, and Restore
// applies it, whether Load decoded it or Stage took it.
type SystemState struct {
	Format int `json:"format"`
	// Seq is the journal sequence number the state reflects: every record
	// with Seq' <= Seq is folded in, none after. In a sharded layout this
	// is the owning shard's journal sequence number.
	Seq int `json:"seq"`
	// Epoch is the control-log cut the state was captured at (sharded
	// layouts only; see internal/durable/sharded). Zero otherwise.
	Epoch           int                     `json:"epoch,omitempty"`
	InstanceCounter int                     `json:"instanceCounter"`
	Users           []*org.User             `json:"users,omitempty"`
	Schemas         []*model.Schema         `json:"schemas,omitempty"`
	Instances       []instanceState         `json:"instances,omitempty"`
	Worklist        *worklist.ManagerExport `json:"worklist,omitempty"`

	// decoded is set by Load: the bias ops are the state's own, each with
	// its own copies of the names it holds, and Restore points those at
	// the engine's (shareNames). A staged state's ops are the live
	// instances' and are left alone.
	decoded bool
}

// instanceState is one instance of a SystemState: the engine's snapshot
// of it and the operations of its bias, encoded as the snapshot's last
// member.
type instanceState struct {
	*engine.InstanceSnapshot
	Bias biasOps `json:"bias,omitempty"`
}

// biasOps encodes an instance's bias through the change codec, which the
// engine does not import.
type biasOps []engine.BiasOp

func (b biasOps) MarshalJSON() ([]byte, error) {
	ops, err := change.AsOperations(b)
	if err != nil {
		return nil, err
	}
	return change.MarshalOps(ops)
}

func (b *biasOps) UnmarshalJSON(data []byte) error {
	ops, err := change.UnmarshalOps(data)
	if err != nil {
		return err
	}
	*b = make(biasOps, len(ops))
	for i, op := range ops {
		(*b)[i] = op
	}
	return nil
}

// Stage takes the engine state at journal sequence seq. The caller must
// guarantee a command boundary: no state-changing command may run between
// reading seq and the per-instance exports (the facade holds its snapshot
// barrier across Stage).
func Stage(eng *engine.Engine, seq int) *SystemState {
	insts := eng.Instances()
	st := &SystemState{
		Format:          FormatVersion,
		Seq:             seq,
		InstanceCounter: eng.InstanceCounter(),
		Users:           eng.Org().AllUsers(),
		Schemas:         eng.AllSchemas(),
		Instances:       make([]instanceState, len(insts)),
		Worklist:        eng.Worklist().Export(),
	}
	for i, inst := range insts {
		st.Instances[i].InstanceSnapshot, st.Instances[i].Bias = inst.Snapshot()
	}
	return st
}

// Encode returns st: a SystemState is encoded by SnapshotStore.Write.
//
// Deprecated: the declaration stays only because the frozen bench/ calls
// it.
func (st *SystemState) Encode() (*SystemState, error) { return st, nil }

// Split partitions a staged state into per-shard states sharing the
// consistent cut Stage observed: shard k receives the instances shardOf
// assigns to it plus the journal sequence number seqs[k] its snapshot
// covers; shard 0 additionally carries the control state (users, schemas,
// worklist, instance counter). All parts record the same control epoch, so
// recovery can re-establish the cut. Safe outside the barrier — it only
// re-buckets what Stage took.
func (st *SystemState) Split(seqs []int, epoch int, shardOf func(instID string) int) []*SystemState {
	parts := make([]*SystemState, len(seqs))
	for k := range parts {
		parts[k] = &SystemState{Format: FormatVersion, Seq: seqs[k], Epoch: epoch}
	}
	parts[0].InstanceCounter = st.InstanceCounter
	parts[0].Users = st.Users
	parts[0].Schemas = st.Schemas
	parts[0].Worklist = st.Worklist
	for _, in := range st.Instances {
		k := shardOf(in.ID)
		parts[k].Instances = append(parts[k].Instances, in)
	}
	return parts
}

// Restore rebuilds the engine state from a captured snapshot. The engine
// must be freshly created (no schemas, no instances).
func Restore(eng *engine.Engine, st *SystemState) error {
	if st.Format != FormatVersion {
		return fmt.Errorf("durable: restore: unsupported snapshot format %d", st.Format)
	}
	for _, u := range st.Users {
		// The snapshot's org model is a superset of any baseline supplied
		// via WithOrg (un-journaled users arrive through both paths, like
		// full replay re-receives them from the option): merge, don't
		// duplicate.
		if _, exists := eng.Org().User(u.ID); exists {
			continue
		}
		if err := eng.Org().AddUser(u); err != nil {
			return fmt.Errorf("durable: restore user: %w", err)
		}
	}
	for _, s := range st.Schemas {
		if err := eng.Deploy(s); err != nil {
			return fmt.Errorf("durable: restore: %w", err)
		}
	}
	for _, in := range st.Instances {
		if in.InstanceSnapshot == nil {
			return fmt.Errorf("durable: restore: an instance without its state")
		}
		if st.decoded {
			shareNames(eng, in)
		}
		if err := eng.RestoreInstance(in.InstanceSnapshot, in.Bias); err != nil {
			return err
		}
	}
	eng.SetInstanceCounter(st.InstanceCounter)
	if st.Worklist != nil {
		if err := eng.RestoreWorklist(st.Worklist); err != nil {
			return err
		}
	}
	return nil
}

// shareNames points every string of a decoded instance's bias ops at an
// equal one the engine already holds: a node or data element ID of the
// instance's schema, or a role of the organizational model, as
// RestoreWorklist does for work items. The overlay the ops rebuild keeps
// the ops' strings, so a recovered biased instance holds no copy of a name
// a live one shares.
func shareNames(eng *engine.Engine, in instanceState) {
	s, ok := eng.Schema(in.TypeName, in.Version)
	if !ok {
		return
	}
	topo := s.Topology()
	held := func(name string) string {
		if i, ok := topo.Idx(name); ok {
			return topo.ID(i)
		}
		if d, ok := s.DataElement(name); ok {
			return d.ID
		}
		if role, ok := eng.Org().Role(name); ok {
			return role
		}
		return name
	}
	for _, op := range in.Bias {
		shareStrings(reflect.ValueOf(op), held)
	}
}

// shareStrings sets every settable string reachable from v through
// pointers, interfaces and struct fields to held's equal one.
func shareStrings(v reflect.Value, held func(string) string) {
	switch v.Kind() {
	case reflect.String:
		if v.CanSet() {
			v.SetString(held(v.String()))
		}
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			shareStrings(v.Elem(), held)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			shareStrings(v.Field(i), held)
		}
	}
}
