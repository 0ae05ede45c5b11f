package adept2

import (
	"fmt"

	"adept2/internal/durable"
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

// IntegrityReport is the result of VerifyLayout: what Open would do with a
// durability layout, computed by Open's code, beside what each journal and
// snapshot file holds.
type IntegrityReport struct {
	// Sharded reports that the layout's global manifest is on disk. False
	// means a manifest-less directory, surveyed as what Open treats it as:
	// one shard whose generations are its snapshot listing.
	Sharded bool
	// Shards has one entry per shard of the layout Open would run.
	Shards []ShardCheck
	// Generations is the layout's generation count.
	Generations int
	// Recovery is what Open(path, opts...).Recovery() would return: the
	// snapshot each shard restores, the records replayed on top, and the
	// generations rejected on the way. nil when Open would refuse.
	Recovery *RecoveryInfo
	// Problems are refusals: Open's own error — the same text and the same
	// Code — when Open would refuse the layout, and a tail repair that
	// failed.
	Problems []error
	// Warnings are findings Open recovers past: torn journal tails and
	// snapshot files that do not load.
	Warnings []string
}

// OK reports whether the layout has no refusal conditions.
func (r *IntegrityReport) OK() bool { return len(r.Problems) == 0 }

// VerifyLayout surveys the durability layout rooted at path offline — the
// journals must be closed. It runs Open's recovery with the same options,
// over snapshot stores that create and sweep nothing, and discards the
// rebuilt system, so the report's verdict and Recovery are Open's own; it
// needs the memory Open needs. Beside that it probes every shard journal's
// tail (sequence gaps, torn trailing bytes) and loads every snapshot file,
// whether a generation names it or not. Without repair it changes nothing
// on disk. With repair set, torn journal tails are truncated in place
// first — the same repair Open performs, made explicit so an operator can
// inspect the layout before restarting a service.
func VerifyLayout(path string, repair bool, opts ...Option) *IntegrityReport {
	var c config
	for _, o := range opts {
		o(&c)
	}
	rep := &IntegrityReport{}
	l, man, found, err := resolveLayout(&c, path, false)
	if err != nil {
		rep.Problems = append(rep.Problems, wrapErr("open", "", err))
		return rep
	}
	rep.Sharded, rep.Generations = found, len(man.Generations)
	for k := 0; k < l.Shards; k++ {
		rep.Shards = append(rep.Shards, checkShard(c.fsys(), k, l.JournalPath(k), l.SnapDir(k), repair, rep))
	}
	sys, _, _, err := recoverLayout(&c, l, man, true)
	if err != nil {
		rep.Problems = append(rep.Problems, wrapErr("open", "", err))
		return rep
	}
	rep.Recovery = sys.recovery
	return rep
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

// checkShard probes one shard's journal tail and loads every file in its
// snapshot directory, appending findings to the report. A journal the
// probe cannot read is a warning here: recovery reads the same bytes, and
// its error is the verdict.
func checkShard(fsys vfs.FS, k int, jpath, snapDir string, repair bool, rep *IntegrityReport) ShardCheck {
	sc := ShardCheck{Shard: k, Journal: jpath}
	_, tail, err := persist.LoadJournalSuffixFS(fsys, jpath, maxSeq)
	if err != nil {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf("shard %d: %v", k, err))
	} else {
		sc.FirstSeq, sc.LastSeq, sc.OpenTail = tail.FirstSeq, tail.LastSeq, tail.OpenTail
		if st, serr := fsys.Stat(jpath); serr == nil {
			sc.TornBytes = st.Size() - tail.ValidSize
		}
		if sc.TornBytes > 0 || sc.OpenTail {
			if repair {
				if rerr := repairJournalTail(fsys, jpath, tail); rerr != nil {
					rep.Problems = append(rep.Problems, fmt.Errorf("shard %d: tail repair: %w", k, rerr))
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

	store := durable.ViewStore(fsys, snapDir)
	entries, err := store.Entries()
	if err != nil {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf("shard %d: %v", k, err))
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
