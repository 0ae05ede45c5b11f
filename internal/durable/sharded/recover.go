package sharded

import (
	"fmt"
	"runtime"
	"sync"

	"adept2/internal/durable"
	"adept2/internal/engine"
	"adept2/internal/fault"
	"adept2/internal/persist"
)

// fanOut runs job(0..n-1) on min(n, NumCPU) workers. The CPU-bound
// recovery stages (record apply, instance restore) use it instead of
// one-goroutine-per-shard: on a host with fewer cores than shards, extra
// appliers only add lock contention on the engine and worklist — the
// jobs are independent, so any interleaving down to fully serial is a
// valid schedule.
func fanOut(n int, job func(k int) error) error {
	workers := runtime.NumCPU()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for k := 0; k < n; k++ {
			if err := job(k); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		ferr error
	)
	idx := make(chan int, n)
	for k := 0; k < n; k++ {
		idx <- k
	}
	close(idx)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range idx {
				if err := job(k); err != nil {
					mu.Lock()
					if ferr == nil {
						ferr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return ferr
}

// ShardState is one shard's recovered inputs: the snapshot state it
// restores from (nil on full replay), the snapshot file name, the decoded
// journal suffix past the snapshot, and the journal's physical tail info
// (fed to ResumeJournalFS afterwards).
type ShardState struct {
	State *durable.SystemState
	File  string
	Recs  []persist.Record
	Tail  persist.TailInfo
}

// LoadResult aggregates a recovery attempt across all shards.
type LoadResult struct {
	// Gen is the generation every shard restored from (nil = full replay).
	Gen    *Generation
	Shards []ShardState
	// Fallbacks diagnoses generations that were present but rejected.
	Fallbacks []string
}

// Recover rebuilds engine state from a layout of any shard count — it is
// the one recovery path: it walks the manifest's generations newest-first,
// loads and validates every shard's snapshot and journal suffix in
// parallel (one goroutine per shard), and restores the first generation
// whose every part is intact into a fresh engine obtained from fresh —
// shard 0 (control state: schemas, users, worklist, counter) serially
// first, then all data shards concurrently.
// A rejected part (torn or corrupt snapshot, failed restore, compacted
// journal the generation cannot bridge) degrades the WHOLE recovery to
// the previous generation: parts of different generations must never mix,
// because a control-log change (e.g. a schema evolution) between two cuts
// would be replayed for some shards and already folded in for others.
// When no generation is usable, recovery falls back to a full merged
// replay — possible only while every shard journal still starts at its
// first record.
//
// Hard refusals (never fallbacks), per shard: a snapshot covering a
// sequence number past the journal tail (the journal lost committed
// records), a compacted journal no usable generation reaches, and —
// detected during MergeApply — a data record referencing a control epoch
// past the control log's tail.
//
// The returned engine still needs the journal suffixes applied: run
// MergeApply, then Engine.SortInstanceOrder.
func Recover(l Layout, man *Manifest, stores []*durable.SnapshotStore, fresh func() *engine.Engine) (*engine.Engine, *LoadResult, error) {
	if err := CheckStrayShardsFS(l.fs(), l.Base, l.Shards); err != nil {
		return nil, nil, err
	}
	res := &LoadResult{Shards: make([]ShardState, l.Shards)}

	for gi := len(man.Generations) - 1; gi >= 0; gi-- {
		gen := &man.Generations[gi]
		if len(gen.Parts) != l.Shards {
			res.Fallbacks = append(res.Fallbacks, fmt.Sprintf(
				"sharded: generation %d has %d parts for %d shards", gi, len(gen.Parts), l.Shards))
			continue
		}
		states, hardErr, softErrs := loadGeneration(l, gen, stores)
		if hardErr != nil {
			return nil, nil, hardErr
		}
		if len(softErrs) > 0 {
			res.Fallbacks = append(res.Fallbacks, softErrs...)
			continue
		}
		eng := fresh()
		if err := restoreShards(eng, states); err != nil {
			res.Fallbacks = append(res.Fallbacks, err.Error())
			continue
		}
		res.Gen = gen
		res.Shards = states
		return eng, res, nil
	}

	// Full merged replay: decode every shard journal from its first
	// record — impossible once any journal was compacted, and refused
	// for shards whose journals still reach a reshard floor (those
	// records were partitioned under a different shard count, so one
	// instance's history may span two shards or lie in a journal the
	// reshard removed; only a generation snapshot can recover past that
	// point — see Manifest.ReplayFloors).
	var wg sync.WaitGroup
	errs := make([]error, l.Shards)
	for k := 0; k < l.Shards; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			recs, tail, err := persist.LoadJournalSuffixFS(l.fs(), l.JournalPath(k), 0)
			if err != nil {
				errs[k] = err
				return
			}
			if tail.FirstSeq > 1 {
				errs[k] = fault.Tagf(fault.Unrecoverable,
					"sharded: shard %d journal starts at seq %d (compacted) and no usable generation reaches seq %d: %v",
					k, tail.FirstSeq, tail.FirstSeq-1, res.Fallbacks)
				return
			}
			if k < len(man.ReplayFloors) && man.ReplayFloors[k] > 0 && tail.FirstSeq > 0 && tail.FirstSeq <= man.ReplayFloors[k] {
				errs[k] = fault.Tagf(fault.Unrecoverable,
					"sharded: shard %d journal reaches back to seq %d, at or before the reshard floor %d, and no usable generation: refusing full replay of mis-partitioned records: %v",
					k, tail.FirstSeq, man.ReplayFloors[k], res.Fallbacks)
				return
			}
			res.Shards[k] = ShardState{Recs: recs, Tail: tail}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return fresh(), res, nil
}

// loadGeneration loads every part of one generation in parallel. It
// returns the per-shard states on success, a hard error for refusal
// conditions, or soft per-part failure messages that make the caller fall
// back to an older generation.
func loadGeneration(l Layout, gen *Generation, stores []*durable.SnapshotStore) ([]ShardState, error, []string) {
	states := make([]ShardState, l.Shards)
	hard := make([]error, l.Shards)
	soft := make([]string, l.Shards)
	var wg sync.WaitGroup
	for k := 0; k < l.Shards; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			part := gen.Parts[k]
			recs, tail, err := persist.LoadJournalSuffixFS(l.fs(), l.JournalPath(k), part.Seq)
			if err != nil {
				hard[k] = err
				return
			}
			// The journal lost committed records: recovering would forge
			// history. (An empty journal is fine — compaction may have
			// folded every record into the snapshot.)
			if tail.LastSeq > 0 && part.Seq > tail.LastSeq {
				hard[k] = fault.Tagf(fault.Unrecoverable,
					"sharded: shard %d snapshot %s covers seq %d but the journal ends at %d: journal truncated, refusing to recover",
					k, part.File, part.Seq, tail.LastSeq)
				return
			}
			// A compacted shard journal needs this generation to reach its
			// first record; otherwise only an older generation could — and
			// it reaches even less. Soft-fail to keep the diagnosis uniform.
			if tail.FirstSeq > 1 && part.Seq < tail.FirstSeq-1 {
				soft[k] = fmt.Sprintf(
					"sharded: shard %d snapshot %s (seq %d) predates the compacted journal start %d",
					k, part.File, part.Seq, tail.FirstSeq)
				return
			}
			st, err := stores[k].Load(durable.ManifestEntry{File: part.File, Seq: part.Seq})
			if err != nil {
				soft[k] = err.Error()
				return
			}
			if st.Epoch != gen.Epoch {
				soft[k] = fmt.Sprintf(
					"sharded: shard %d snapshot %s records epoch %d, generation says %d",
					k, part.File, st.Epoch, gen.Epoch)
				return
			}
			states[k] = ShardState{State: st, File: part.File, Recs: recs, Tail: tail}
		}(k)
	}
	wg.Wait()
	for _, err := range hard {
		if err != nil {
			return nil, err, nil
		}
	}
	var msgs []string
	for _, m := range soft {
		if m != "" {
			msgs = append(msgs, m)
		}
	}
	if len(msgs) > 0 {
		return nil, nil, msgs
	}
	return states, nil, nil
}

// restoreShards installs one generation's snapshot states into a fresh
// engine: shard 0 first (it carries the schemas every instance
// references, plus users, worklist, and the instance counter), then all
// data shards concurrently — their instance sets are disjoint by the
// shard hash, and RestoreInstance only takes the engine lock for the map
// insert. The caller re-sorts the creation-order index afterwards.
func restoreShards(eng *engine.Engine, states []ShardState) error {
	if err := durable.Restore(eng, states[0].State); err != nil {
		return err
	}
	return fanOut(len(states)-1, func(k int) error {
		return durable.Restore(eng, states[k+1].State)
	})
}

// MergeApply replays the loaded journal suffixes in an order equivalent
// to the original execution: within a shard by sequence number, and
// across shards by the control epoch — a data record stamped with epoch e
// applies after shard-0 record e and before the first control record past
// e. Between two control records every shard's run applies concurrently
// (records of different shards touch disjoint instances and commute), so
// replay parallelism scales with the shard count; each control record is
// a barrier, applied alone.
//
// isControl classifies ops as control-log commands; apply must be safe
// for concurrent calls on data records of different shards. MergeApply
// returns the shard-0 seq of the last control record (the recovered
// epoch) and per-shard applied-record counts. A data record whose epoch
// references a control position past the end of the control log is a
// hard error: the control journal lost committed records.
func MergeApply(res *LoadResult, isControl func(op string) bool, apply func(*persist.Record) error) (lastControl int, perShard []int, err error) {
	n := len(res.Shards)
	pos := make([]int, n)
	perShard = make([]int, n)
	curE := 0
	if res.Gen != nil {
		curE = res.Gen.Epoch
	}
	lastControl = curE

	// runTo applies shard k's records while limit admits them; the two
	// phases per control barrier differ only in the admission rule.
	runTo := func(k int, admit func(*persist.Record) bool) (int, error) {
		applied := 0
		recs := res.Shards[k].Recs
		for pos[k] < len(recs) {
			rec := &recs[pos[k]]
			if !admit(rec) {
				break
			}
			if err := apply(rec); err != nil {
				return applied, err
			}
			pos[k]++
			applied++
		}
		return applied, nil
	}

	dataAdmit := func(rec *persist.Record) bool { return rec.Epoch <= curE }
	parallelPhase := func(admit0 func(*persist.Record) bool) error {
		start := 0
		if admit0 == nil {
			start = 1
		}
		return fanOut(n-start, func(i int) error {
			k := start + i
			admit := dataAdmit
			if k == 0 {
				admit = admit0
			}
			c, err := runTo(k, admit)
			perShard[k] += c
			return err
		})
	}

	for {
		// Phase A: shard 0 up to (not including) its next control record,
		// all data shards up to the current epoch, concurrently.
		if err := parallelPhase(func(rec *persist.Record) bool { return !isControl(rec.Op) }); err != nil {
			return lastControl, perShard, err
		}
		// The epoch cursor may move past non-control stamp values (open- or
		// reshard-time epochs equal to a data record's seq): every shard-0
		// record at or below the last applied seq is in, so stamps up to it
		// are satisfied. Phase B drains the data records that admitted.
		s0 := res.Shards[0].Recs
		if pos[0] > 0 && s0[pos[0]-1].Seq > curE {
			curE = s0[pos[0]-1].Seq
			if err := parallelPhase(nil); err != nil {
				return lastControl, perShard, err
			}
		}
		if pos[0] >= len(s0) {
			break
		}
		// Control barrier: applied alone.
		rec := &s0[pos[0]]
		if err := apply(rec); err != nil {
			return lastControl, perShard, err
		}
		pos[0]++
		perShard[0]++
		curE = rec.Seq
		lastControl = rec.Seq
	}

	for k := 1; k < n; k++ {
		if pos[k] < len(res.Shards[k].Recs) {
			rec := &res.Shards[k].Recs[pos[k]]
			return lastControl, perShard, fault.Tagf(fault.Unrecoverable,
				"sharded: shard %d record %d references control epoch %d beyond the control log tail %d: control journal truncated, refusing to recover",
				k, rec.Seq, rec.Epoch, curE)
		}
	}
	return lastControl, perShard, nil
}
