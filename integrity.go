package adept2

import (
	"fmt"

	"adept2/internal/durable"
	"adept2/internal/durable/sharded"
	"adept2/internal/persist"
	"adept2/internal/vfs"
)

const maxSeq = int(^uint(0) >> 1)

// SnapshotCheck reports one snapshot file's offline validation outcome:
// the full Load path — header format, payload length, CRC-32, seq
// cross-checks — ran against it.
type SnapshotCheck struct {
	File string
	Seq  int
	Err  string // "" when the snapshot decodes and checksums cleanly
}

// ShardCheck reports one shard's journal probe and snapshot findings.
type ShardCheck struct {
	Shard    int
	Journal  string
	FirstSeq int
	LastSeq  int
	// TornBytes counts physical bytes past the last intact record — a
	// torn or corrupt tail that Open (or VerifyLayout with repair) will
	// truncate away.
	TornBytes int64
	// OpenTail is set when the final intact record lost its newline
	// terminator (also repairable).
	OpenTail bool
	// Repaired is set when this run truncated the torn tail in place.
	Repaired  bool
	Snapshots []SnapshotCheck
}

// IntegrityReport is the result of VerifyLayout: the offline integrity
// survey of a durability layout. Problems are refusal conditions — a
// normal Open would either fail outright or be unable to recover the
// full history. Warnings are degraded but recoverable findings (torn
// tails, stale snapshots with a valid fallback).
type IntegrityReport struct {
	// Sharded reports that the layout's global manifest is on disk. False
	// means a manifest-less directory, surveyed as what Open treats it as:
	// one shard whose generations are its snapshot listing.
	Sharded bool
	// Shards has one entry per shard (at least one).
	Shards []ShardCheck
	// Generations is the layout's generation count; ValidGen indexes the
	// newest generation whose every part validates, -1 when none does.
	Generations int
	ValidGen    int
	Problems    []string
	Warnings    []string
}

// OK reports whether the layout has no refusal conditions.
func (r *IntegrityReport) OK() bool { return len(r.Problems) == 0 }

// VerifyLayout surveys the durability layout rooted at path offline —
// the journals must be closed. It probes every shard journal's tail
// (scanning for sequence gaps and torn trailing bytes), fully validates
// every snapshot file (CRC and seq cross-checks), and walks the layout's
// generations to find the newest one recovery could actually use. With
// repair set, torn journal tails are truncated in place — the same repair
// Open performs, made explicit so an operator can inspect the layout
// before restarting a service.
//
// The returned report is never nil; the error covers only I/O failures
// that prevented the survey itself.
func VerifyLayout(path string, repair bool, opts ...Option) (*IntegrityReport, error) {
	var c config
	for _, o := range opts {
		o(&c)
	}
	fsys := c.fsys()
	rep := &IntegrityReport{ValidGen: -1}

	l, man, found, err := sharded.Resolve(shardedLayout(&c, path))
	if err != nil {
		rep.Problems = append(rep.Problems, err.Error())
		return rep, nil
	}
	rep.Sharded = found
	if stray, err := sharded.StrayShardsFS(fsys, path, man.Shards); err != nil {
		rep.Problems = append(rep.Problems, err.Error())
	} else if len(stray) > 0 {
		rep.Problems = append(rep.Problems, fmt.Sprintf(
			"stray shard journals %v past the declared count %d: rerun adeptctl reshard", stray, man.Shards))
	}

	valid := make([]map[string]int, man.Shards) // per shard: file -> seq of valid snapshots
	for k := 0; k < man.Shards; k++ {
		sc := checkShard(fsys, k, l.JournalPath(k), l.SnapDir(k), repair, rep)
		rep.Shards = append(rep.Shards, sc)
		valid[k] = make(map[string]int)
		for _, s := range sc.Snapshots {
			if s.Err == "" {
				valid[k][s.File] = s.Seq
			}
		}
	}

	rep.Generations = len(man.Generations)
	for g := len(man.Generations) - 1; g >= 0; g-- {
		gen := man.Generations[g]
		ok := len(gen.Parts) == man.Shards
		for k := 0; ok && k < man.Shards; k++ {
			seq, present := valid[k][gen.Parts[k].File]
			ok = present && seq == gen.Parts[k].Seq
		}
		if ok {
			rep.ValidGen = g
			break
		}
	}
	switch {
	case rep.Generations > 0 && rep.ValidGen == rep.Generations-1:
		// Newest generation is usable: the fast path.
	case rep.ValidGen >= 0:
		rep.Warnings = append(rep.Warnings, fmt.Sprintf(
			"newest generation does not validate: recovery falls back to generation %d of %d",
			rep.ValidGen+1, rep.Generations))
	default:
		// No usable generation: full merged replay is the only path, and
		// it is refused for shards whose prefix was compacted away or
		// partitioned under a different shard count (reshard floor).
		for k, sc := range rep.Shards {
			floor := 0
			if k < len(man.ReplayFloors) {
				floor = man.ReplayFloors[k]
			}
			switch {
			case sc.FirstSeq > 1:
				rep.Problems = append(rep.Problems, fmt.Sprintf(
					"shard %d: no valid generation and journal starts at seq %d: the compacted prefix is unrecoverable",
					k, sc.FirstSeq))
			case floor > 0 && sc.FirstSeq > 0 && sc.FirstSeq <= floor:
				rep.Problems = append(rep.Problems, fmt.Sprintf(
					"shard %d: no valid generation and records at or below reshard floor %d: full replay is refused",
					k, floor))
			}
		}
		if rep.Generations > 0 && rep.OK() {
			rep.Warnings = append(rep.Warnings,
				"no generation validates: recovery will fall back to full journal replay")
		}
	}
	return rep, nil
}

// repairJournalTail performs exactly the tail repair Open would (truncate
// past the last intact record, terminate an open tail) and fsyncs it:
// nothing is appended, so the Flush is the sync alone.
func repairJournalTail(fsys vfs.FS, jpath string, tail persist.TailInfo) error {
	j, err := persist.ResumeJournalFS(fsys, jpath, tail)
	if err != nil {
		return err
	}
	if err := j.Flush(); err != nil {
		j.Close()
		return err
	}
	return j.Close()
}

// checkShard probes one shard's journal tail and validates its snapshot
// store, appending findings to the report.
func checkShard(fsys vfs.FS, k int, jpath, snapDir string, repair bool, rep *IntegrityReport) ShardCheck {
	sc := ShardCheck{Shard: k, Journal: jpath}
	_, tail, err := persist.LoadJournalSuffixFS(fsys, jpath, maxSeq)
	if err != nil {
		rep.Problems = append(rep.Problems, fmt.Sprintf("shard %d: %v", k, err))
	} else {
		sc.FirstSeq, sc.LastSeq, sc.OpenTail = tail.FirstSeq, tail.LastSeq, tail.OpenTail
		if st, serr := fsys.Stat(jpath); serr == nil {
			sc.TornBytes = st.Size() - tail.ValidSize
		}
		if sc.TornBytes > 0 || sc.OpenTail {
			if repair {
				if rerr := repairJournalTail(fsys, jpath, tail); rerr != nil {
					rep.Problems = append(rep.Problems, fmt.Sprintf("shard %d: tail repair: %v", k, rerr))
				} else {
					sc.Repaired = true
				}
			} else {
				rep.Warnings = append(rep.Warnings, fmt.Sprintf(
					"shard %d: %d torn byte(s) past seq %d (repaired on open, or now with -repair)",
					k, sc.TornBytes, sc.LastSeq))
			}
		}
	}

	if _, err := fsys.Stat(snapDir); err != nil {
		return sc // no snapshot store: nothing to validate
	}
	store, err := durable.OpenStoreFS(fsys, snapDir)
	if err != nil {
		rep.Problems = append(rep.Problems, fmt.Sprintf("shard %d: %v", k, err))
		return sc
	}
	entries, err := store.Entries()
	if err != nil {
		rep.Problems = append(rep.Problems, fmt.Sprintf("shard %d: %v", k, err))
		return sc
	}
	for _, e := range entries {
		chk := SnapshotCheck{File: e.File, Seq: e.Seq}
		if _, lerr := store.Load(e); lerr != nil {
			chk.Err = lerr.Error()
			rep.Warnings = append(rep.Warnings, fmt.Sprintf("shard %d: %v", k, lerr))
		}
		sc.Snapshots = append(sc.Snapshots, chk)
	}
	return sc
}
