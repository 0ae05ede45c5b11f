package durable

import (
	"encoding/json"
	"fmt"

	"adept2/internal/change"
	"adept2/internal/engine"
	"adept2/internal/model"
	"adept2/internal/org"
	"adept2/internal/worklist"
)

// FormatVersion is the snapshot payload format this build writes and
// accepts. Recovery treats any other version as skew and falls back.
const FormatVersion = 1

// SystemState is the complete serialized engine state a snapshot carries:
// everything OpenSystem needs to resume without replaying the journal
// prefix the snapshot covers.
type SystemState struct {
	Format int `json:"format"`
	// Seq is the journal sequence number the state reflects: every record
	// with Seq' <= Seq is folded in, none after. In a sharded layout this
	// is the owning shard's journal sequence number.
	Seq int `json:"seq"`
	// Epoch is the control-log cut the state was captured at (sharded
	// layouts only; see internal/durable/sharded). Zero otherwise.
	Epoch           int                        `json:"epoch,omitempty"`
	InstanceCounter int                        `json:"instanceCounter"`
	Users           []*org.User                `json:"users,omitempty"`
	Schemas         []json.RawMessage          `json:"schemas,omitempty"`
	Instances       []*engine.InstanceSnapshot `json:"instances,omitempty"`
	Worklist        *worklist.ManagerExport    `json:"worklist,omitempty"`
}

// StagedCapture is the cheap in-memory clone of the engine state taken
// under the facade's snapshot barrier. Only Stage must run inside the
// barrier — it clones per-instance facets and collects shared references
// without any JSON work; Encode (marshaling schemas, bias payloads) runs
// after the barrier is released so commands are not stalled behind
// serialization.
type StagedCapture struct {
	seq     int
	epoch   int
	counter int
	users   []*org.User
	schemas []*model.Schema // deployed schemas are immutable: refs suffice
	insts   []stagedInstance
	wl      *worklist.ManagerExport
}

type stagedInstance struct {
	snap *engine.InstanceSnapshot
	bias []engine.BiasOp
}

// Stage clones the engine state at journal sequence seq. The caller must
// guarantee a command boundary: no state-changing command may run between
// reading seq and the per-instance exports (the facade holds its snapshot
// barrier across Stage).
func Stage(eng *engine.Engine, seq int) *StagedCapture {
	sc := &StagedCapture{
		seq:     seq,
		counter: eng.InstanceCounter(),
		users:   eng.Org().AllUsers(),
		schemas: eng.AllSchemas(),
		wl:      eng.Worklist().Export(),
	}
	for _, inst := range eng.Instances() {
		snap, biasOps := inst.Snapshot()
		sc.insts = append(sc.insts, stagedInstance{snap: snap, bias: biasOps})
	}
	return sc
}

// Split partitions a staged capture into n per-shard captures sharing the
// consistent cut Stage observed: shard k receives the instances shardOf
// assigns to it plus the journal sequence number seqs[k] its snapshot
// covers; shard 0 additionally carries the control state (users, schemas,
// worklist, instance counter). All parts record the same control epoch, so
// recovery can re-establish the cut. Safe outside the barrier — it only
// re-buckets the already-cloned staged state.
func (sc *StagedCapture) Split(seqs []int, epoch int, shardOf func(instID string) int) []*StagedCapture {
	parts := make([]*StagedCapture, len(seqs))
	for k := range parts {
		parts[k] = &StagedCapture{seq: seqs[k], epoch: epoch}
	}
	parts[0].counter = sc.counter
	parts[0].users = sc.users
	parts[0].schemas = sc.schemas
	parts[0].wl = sc.wl
	for _, si := range sc.insts {
		k := shardOf(si.snap.ID)
		parts[k].insts = append(parts[k].insts, si)
	}
	return parts
}

// Encode serializes a staged capture into the snapshot payload. Safe to
// call outside the barrier: everything it touches is either cloned
// (instance facets) or immutable (deployed schemas, bias operations).
func (sc *StagedCapture) Encode() (*SystemState, error) {
	st := &SystemState{
		Format:          FormatVersion,
		Seq:             sc.seq,
		Epoch:           sc.epoch,
		InstanceCounter: sc.counter,
		Users:           sc.users,
		Worklist:        sc.wl,
	}
	for _, s := range sc.schemas {
		blob, err := json.Marshal(s)
		if err != nil {
			return nil, fmt.Errorf("durable: capture schema %s v%d: %w", s.TypeName(), s.Version(), err)
		}
		st.Schemas = append(st.Schemas, blob)
	}
	for _, si := range sc.insts {
		if len(si.bias) > 0 {
			ops, err := change.AsOperations(si.bias)
			if err != nil {
				return nil, fmt.Errorf("durable: capture %s: %w", si.snap.ID, err)
			}
			blob, err := change.MarshalOps(ops)
			if err != nil {
				return nil, fmt.Errorf("durable: capture %s: %w", si.snap.ID, err)
			}
			si.snap.Bias = blob
		}
		st.Instances = append(st.Instances, si.snap)
	}
	return st, nil
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
	for _, blob := range st.Schemas {
		var s model.Schema
		if err := json.Unmarshal(blob, &s); err != nil {
			return fmt.Errorf("durable: restore schema: %w", err)
		}
		if err := eng.Deploy(&s); err != nil {
			return fmt.Errorf("durable: restore: %w", err)
		}
	}
	for _, snap := range st.Instances {
		var bias []engine.BiasOp
		if len(snap.Bias) > 0 {
			ops, err := change.UnmarshalOps(snap.Bias)
			if err != nil {
				return fmt.Errorf("durable: restore %s: %w", snap.ID, err)
			}
			bias = make([]engine.BiasOp, len(ops))
			for i, op := range ops {
				bias[i] = op
			}
		}
		if err := eng.RestoreInstance(snap, bias); err != nil {
			return err
		}
	}
	eng.SetInstanceCounter(st.InstanceCounter)
	if st.Worklist != nil {
		if err := eng.Worklist().Import(st.Worklist); err != nil {
			return err
		}
	}
	return nil
}
