package adept2_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"adept2"
	"adept2/internal/durable"
	"adept2/internal/durable/sharded"
	"adept2/internal/persist"
	"adept2/internal/sim"
	"adept2/internal/vfs"
)

// legacyDir is the directory a build before sharding left behind — one
// journal, its snapshot directory, no global manifest — together with the
// in-memory system whose state it must recover to.
type legacyDir struct {
	path    string
	snapDir string
	want    *adept2.System
	i1      string
	snapSeq int // journal seq the one snapshot covers
	tail    int // journal head
}

// buildLegacyDir writes the canonical scenario (runPrefix, a snapshot,
// runSuffix) with persist and durable primitives only: records go through
// persist.Journal without instance IDs or epochs, the snapshot through
// durable.Stage and SnapshotStore.Write under its plain name,
// and the per-store MANIFEST.json such builds kept is there too. With
// compact the journal is cut down to the suffix past the snapshot.
func buildLegacyDir(t *testing.T, snapDir string, compact bool) legacyDir {
	t.Helper()
	ctx := context.Background()
	d := legacyDir{
		path:    filepath.Join(t.TempDir(), "wal.ndjson"),
		snapDir: snapDir,
		want:    adept2.New(adept2.WithOrg(sim.Org())),
	}
	if d.snapDir == "" {
		d.snapDir = d.path + ".snapshots"
	}
	j, err := persist.OpenJournalBufferedFS(vfs.OS(), d.path)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(cmd adept2.Command) any {
		t.Helper()
		res, err := d.want.Submit(ctx, cmd)
		if err != nil {
			t.Fatal(err)
		}
		op, args, err := adept2.EncodeCommand(cmd)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.AppendRecord(op, 0, args); err != nil {
			t.Fatal(err)
		}
		return res
	}

	submit(&adept2.Deploy{Schema: sim.OnlineOrder()})
	d.i1 = submit(&adept2.CreateInstance{TypeName: "online_order"}).(*adept2.Instance).ID()
	i2 := submit(&adept2.CreateInstance{TypeName: "online_order"}).(*adept2.Instance).ID()
	submit(&adept2.CompleteActivity{Instance: d.i1, Node: "get_order", User: "ann", Outputs: map[string]any{"out": "o1"}})
	submit(&adept2.CompleteActivity{Instance: d.i1, Node: "collect_data", User: "ann"})
	submit(&adept2.CompleteActivity{Instance: d.i1, Node: "compose_order", User: "bob"})
	submit(&adept2.AdHoc{Instance: i2, Ops: sim.OnlineOrderBiasI2()})
	submit(&adept2.Evolve{TypeName: "online_order", Ops: sim.OnlineOrderTypeChange()})

	d.snapSeq = j.Seq()
	state := durable.Stage(adept2.EngineOf(d.want), d.snapSeq)
	store, err := durable.OpenStore(d.snapDir)
	if err != nil {
		t.Fatal(err)
	}
	file, err := store.Write(state)
	if err != nil {
		t.Fatal(err)
	}
	listing := fmt.Sprintf(`{"format":1,"snapshots":[{"file":%q,"seq":%d}]}`, filepath.Base(file), d.snapSeq)
	if err := os.WriteFile(filepath.Join(d.snapDir, "MANIFEST.json"), []byte(listing), 0o644); err != nil {
		t.Fatal(err)
	}

	submit(&adept2.CompleteActivity{Instance: d.i1, Node: "send_questions", User: "ann"})
	submit(&adept2.Suspend{Instance: d.i1})
	submit(&adept2.Resume{Instance: d.i1})
	d.tail = j.Seq()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if compact {
		if dropped, err := durable.CompactJournal(d.path, d.snapSeq); err != nil || dropped != d.snapSeq {
			t.Fatalf("compact: dropped %d of %d, err=%v", dropped, d.snapSeq, err)
		}
	}
	return d
}

// TestLegacyDirectoryAdoption: a directory written before sharding existed
// opens as the one-shard layout with no conversion step — suffix-only
// recovery from its snapshot, no manifest written by Open, the first
// checkpoint writing the global manifest with the adopted snapshot kept as
// the older generation — and reshards 1 → 4 → 1 without losing state.
func TestLegacyDirectoryAdoption(t *testing.T) {
	for _, customDir := range []bool{false, true} {
		for _, compact := range []bool{false, true} {
			name := fmt.Sprintf("dir=%t/compacted=%t", customDir, compact)
			t.Run(name, func(t *testing.T) {
				snapDir := ""
				if customDir {
					snapDir = filepath.Join(t.TempDir(), "snaps")
				}
				d := buildLegacyDir(t, snapDir, compact)
				cfg := adept2.CheckpointConfig{Every: -1, Dir: snapDir}
				adoptLegacyDir(t, d, cfg)
			})
		}
	}
}

func adoptLegacyDir(t *testing.T, d legacyDir, cfg adept2.CheckpointConfig) {
	sys := openCheckpointed(t, d.path, cfg)
	info := sys.Recovery()
	if info.FullReplay || info.SnapshotSeq != d.snapSeq || info.Replayed != d.tail-d.snapSeq ||
		info.Shards != 1 || len(info.PerShard) != 1 || len(info.Fallbacks) != 0 {
		t.Fatalf("adoption must be the snapshot plus its suffix: %+v", info)
	}
	assertSameState(t, d.want, sys)
	if man, err := sharded.LoadManifest(sharded.ManifestPath(d.path)); err != nil || man != nil {
		t.Fatalf("Open must not write a manifest: %+v err=%v", man, err)
	}

	// Numbering continues past the adopted journal on both sides.
	if _, err := d.want.Submit(context.Background(), &adept2.CompleteActivity{Instance: d.i1, Node: "confirm_order", User: "ann"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Submit(context.Background(), &adept2.CompleteActivity{Instance: d.i1, Node: "confirm_order", User: "ann"}); err != nil {
		t.Fatal(err)
	}
	if sys.JournalSeq() != d.tail+1 {
		t.Fatalf("journal seq %d after adoption, want %d", sys.JournalSeq(), d.tail+1)
	}

	// The first checkpoint writes the manifest: the adopted snapshot is
	// the older generation, still on disk under its plain name.
	if _, _, err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	man, err := sharded.LoadManifest(sharded.ManifestPath(d.path))
	if err != nil || man == nil || man.Shards != 1 || len(man.Generations) != 2 {
		t.Fatalf("manifest after the first checkpoint: %+v err=%v", man, err)
	}
	adopted, newest := man.Generations[0].Parts[0], man.Generations[1].Parts[0]
	if adopted.Seq != d.snapSeq || newest.Seq != d.tail+1 {
		t.Fatalf("generations: %+v", man.Generations)
	}
	if _, err := os.Stat(filepath.Join(d.snapDir, adopted.File)); err != nil {
		t.Fatalf("adopted snapshot: %v", err)
	}
	sys = openCheckpointed(t, d.path, cfg)
	if info := sys.Recovery(); info.SnapshotSeq != d.tail+1 || info.Replayed != 0 {
		t.Fatalf("recovery from the first generation written: %+v", info)
	}
	assertSameState(t, d.want, sys)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{4, 1} {
		if err := adept2.Reshard(d.path, n, adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg)); err != nil {
			t.Fatalf("reshard to %d: %v", n, err)
		}
		got := openCheckpointed(t, d.path, cfg)
		if got.Recovery().Shards != n {
			t.Fatalf("recovered %d shards, want %d", got.Recovery().Shards, n)
		}
		assertSameState(t, d.want, got)
		if err := got.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
