package adept2_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"adept2"
	"adept2/internal/durable/sharded"
	"adept2/internal/sim"
	"adept2/internal/vfs"
)

// shardedCfg is the default sharded test configuration: 4 shards, manual
// checkpoints.
func shardedCfg() adept2.CheckpointConfig {
	return adept2.CheckpointConfig{Shards: 4, Every: -1}
}

// reference replays the canonical scenario on an in-memory system for
// state comparison.
func reference(t *testing.T, suffix bool) *adept2.System {
	t.Helper()
	want := adept2.New(adept2.WithOrg(sim.Org()))
	i1, _ := runPrefix(t, want)
	if suffix {
		runSuffix(t, want, i1)
	}
	return want
}

// TestShardedRoundTrip: a fresh 4-shard layout journals the canonical
// scenario across shards and a reopen rebuilds the exact state by a full
// merged replay.
func TestShardedRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	sys := openCheckpointed(t, path, shardedCfg())
	i1, _ := runPrefix(t, sys)
	runSuffix(t, sys, i1)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// Data records actually spread past the control shard.
	spread := 0
	for k := 1; k < 4; k++ {
		l := sharded.Layout{Base: path, Shards: 4}
		if st, err := os.Stat(l.JournalPath(k)); err == nil && st.Size() > 0 {
			spread++
		}
	}
	if spread == 0 {
		t.Fatal("no data shard received records")
	}

	got := openCheckpointed(t, path, shardedCfg())
	defer got.Close()
	info := got.Recovery()
	if !info.FullReplay || info.Shards != 4 {
		t.Fatalf("recovery: %+v", info)
	}
	assertSameState(t, reference(t, true), got)
}

// eachShardCount runs a layout property at one shard and at four: the
// generation mechanism is the same code at every count.
func eachShardCount(t *testing.T, fn func(t *testing.T, cfg adept2.CheckpointConfig)) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := shardedCfg()
			cfg.Shards = shards
			fn(t, cfg)
		})
	}
}

// TestShardedCheckpointSuffixRecovery: a generation checkpoint plus a
// cross-shard suffix recovers without a full replay, and the per-shard
// replay counts add up to the suffix.
func TestShardedCheckpointSuffixRecovery(t *testing.T) {
	eachShardCount(t, func(t *testing.T, cfg adept2.CheckpointConfig) {
		path := filepath.Join(t.TempDir(), "wal.ndjson")
		sys := openCheckpointed(t, path, cfg)
		i1, _ := runPrefix(t, sys)
		preSeq := sys.JournalSeq()
		if _, _, err := sys.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		runSuffix(t, sys, i1)
		suffixLen := sys.JournalSeq() - preSeq
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}

		got := openCheckpointed(t, path, cfg)
		defer got.Close()
		info := got.Recovery()
		if info.FullReplay {
			t.Fatalf("expected generation recovery, got full replay: %+v", info)
		}
		if info.Replayed != suffixLen {
			t.Fatalf("replayed %d records, suffix was %d", info.Replayed, suffixLen)
		}
		perShard := 0
		for _, sr := range info.PerShard {
			perShard += sr.Replayed
		}
		if info.Shards != cfg.Shards || len(info.PerShard) != cfg.Shards || perShard != suffixLen {
			t.Fatalf("per-shard recovery detail: %+v", info)
		}
		assertSameState(t, reference(t, true), got)
	})
}

// TestShardedTornSnapshotFallsBackAGeneration: corrupting one shard's
// part of the newest generation degrades recovery to the previous
// generation — for every shard, never mixing cuts — and the state still
// comes back exact.
func TestShardedTornSnapshotFallsBackAGeneration(t *testing.T) {
	eachShardCount(t, func(t *testing.T, cfg adept2.CheckpointConfig) {
		path := filepath.Join(t.TempDir(), "wal.ndjson")
		sys := openCheckpointed(t, path, cfg)
		i1, _ := runPrefix(t, sys)
		if _, _, err := sys.Checkpoint(); err != nil { // generation 1
			t.Fatal(err)
		}
		runSuffix(t, sys, i1)
		// A control record between the cuts gives generation 2 a new epoch,
		// so every shard gets its own part file even where its journal did
		// not advance (the fallback ladder depends on parts not being shared).
		if _, err := sys.Submit(context.Background(), &adept2.AddUser{User: &adept2.User{ID: "carl", Roles: []string{"clerk"}}}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := sys.Checkpoint(); err != nil { // generation 2
			t.Fatal(err)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}

		man, err := sharded.LoadManifest(sharded.ManifestPath(path))
		if err != nil || man == nil || len(man.Generations) != 2 {
			t.Fatalf("manifest: %+v err=%v", man, err)
		}
		newest := man.Generations[1]
		l := sharded.Layout{Base: path, Shards: man.Shards}
		k := man.Shards / 2 // the victim shard: 2 of 4, 0 of 1
		victim := filepath.Join(l.SnapDir(k), newest.Parts[k].File)
		blob, err := os.ReadFile(victim)
		if err != nil {
			t.Fatal(err)
		}
		blob[len(blob)-3] ^= 0xff
		if err := os.WriteFile(victim, blob, 0o644); err != nil {
			t.Fatal(err)
		}

		got := openCheckpointed(t, path, cfg)
		defer got.Close()
		info := got.Recovery()
		if info.FullReplay {
			t.Fatalf("expected older-generation recovery: %+v", info)
		}
		if len(info.Fallbacks) == 0 {
			t.Fatal("expected a fallback diagnosis for the torn part")
		}
		if info.SnapshotSeq != man.Generations[0].Parts[0].Seq {
			t.Fatalf("recovered from seq %d, want generation 1 at %d", info.SnapshotSeq, man.Generations[0].Parts[0].Seq)
		}
		assertSameState(t, reference(t, true), got)

		// With every generation's victim part torn, recovery degrades to a
		// full merged replay (journals are uncompacted) — still exact.
		for _, gen := range man.Generations {
			f := filepath.Join(l.SnapDir(k), gen.Parts[k].File)
			if err := os.WriteFile(f, []byte("garbage"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got2 := openCheckpointed(t, path, cfg)
		defer got2.Close()
		if !got2.Recovery().FullReplay {
			t.Fatalf("expected full replay: %+v", got2.Recovery())
		}
		assertSameState(t, reference(t, true), got2)
	})
}

// dropLastLine truncates a journal file by its final record.
func dropLastLine(t *testing.T, path string) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trimmed := strings.TrimRight(string(blob), "\n")
	i := strings.LastIndexByte(trimmed, '\n')
	if i < 0 {
		t.Fatalf("journal %s has fewer than two records", path)
	}
	if err := os.WriteFile(path, []byte(trimmed[:i+1]), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestShardedTornDataJournalTail: losing a data shard's final record is
// tolerated (a torn tail, as on any shard) and recovery
// lands deterministically on the state just before the lost command.
func TestShardedTornDataJournalTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	sys := openCheckpointed(t, path, shardedCfg())
	i1, i2 := runPrefix(t, sys)
	// Route one extra command to a non-control shard and then lose it.
	victim, shard := i1, sharded.ShardOf(i1, 4)
	if shard == 0 {
		victim, shard = i2, sharded.ShardOf(i2, 4)
	}
	if shard == 0 {
		t.Skip("both scenario instances hash to shard 0")
	}
	if _, err := sys.Submit(context.Background(), &adept2.Suspend{Instance: victim}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	l := sharded.Layout{Base: path, Shards: 4}
	dropLastLine(t, l.JournalPath(shard))

	got := openCheckpointed(t, path, shardedCfg())
	defer got.Close()
	inst, ok := got.Instance(victim)
	if !ok {
		t.Fatalf("instance %s lost", victim)
	}
	if inst.Suspended() {
		t.Fatal("suspend survived although its record was torn off")
	}
	assertSameState(t, reference(t, false), got)
}

// TestShardedDanglingEpochRefuses: a data record referencing a control
// epoch the (truncated) control log no longer reaches is a hard refusal —
// replaying it on the wrong side of the lost control record would forge
// history.
func TestShardedDanglingEpochRefuses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	sys := openCheckpointed(t, path, shardedCfg())
	if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatal(err)
	}
	// A second control record, then data records stamped with its epoch.
	if _, err := sys.Submit(context.Background(), &adept2.Evolve{TypeName: "online_order", Ops: sim.OnlineOrderTypeChange()}); err != nil {
		t.Fatal(err)
	}
	spread := false
	for i := 0; i < 8; i++ {
		res, err := sys.Submit(context.Background(), &adept2.CreateInstance{TypeName: "online_order"})
		if err != nil {
			t.Fatal(err)
		}
		inst := res.(*adept2.Instance)
		if sharded.ShardOf(inst.ID(), 4) != 0 {
			spread = true
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if !spread {
		t.Fatal("no instance hashed off the control shard")
	}
	// Truncate the control log to before the evolve: the data records
	// stamped with its seq now dangle.
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first := strings.IndexByte(string(blob), '\n')
	if err := os.WriteFile(path, blob[:first+1], 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = adept2.Open(path, adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(shardedCfg()))
	if err == nil || !strings.Contains(err.Error(), "control") {
		t.Fatalf("expected dangling-epoch refusal, got %v", err)
	}
}

// TestShardedCountMismatchRefuses: the global manifest's shard count is
// authoritative; shard journals past it holding records refuse the open.
func TestShardedCountMismatchRefuses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	sys := openCheckpointed(t, path, shardedCfg())
	if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatal(err)
	}
	// Populate the upper shards so the lie below is detectable.
	high := false
	for i := 0; i < 8; i++ {
		res, err := sys.Submit(context.Background(), &adept2.CreateInstance{TypeName: "online_order"})
		if err != nil {
			t.Fatal(err)
		}
		inst := res.(*adept2.Instance)
		if sharded.ShardOf(inst.ID(), 4) >= 2 {
			high = true
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if !high {
		t.Fatal("no instance hashed to a shard >= 2")
	}
	// Rewrite the manifest claiming fewer shards than the directory holds.
	blob, _ := json.Marshal(&sharded.Manifest{Format: sharded.ManifestFormat, Shards: 2})
	if err := os.WriteFile(sharded.ManifestPath(path), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := adept2.Open(path, adept2.WithOrg(sim.Org()))
	if err == nil || !strings.Contains(err.Error(), "shard count mismatch") {
		t.Fatalf("expected shard-count-mismatch refusal, got %v", err)
	}
}

// TestShardedOpenOnSingleJournalLayoutRefuses: asking for shards on top
// of an existing manifest-less one-shard layout refuses with a reshard
// hint — it never reinterprets the data in place.
func TestShardedOpenOnSingleJournalLayoutRefuses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	sys, err := adept2.Open(path, adept2.WithOrg(sim.Org()))
	if err != nil {
		t.Fatal(err)
	}
	runPrefix(t, sys)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = adept2.Open(path, adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(shardedCfg()))
	if err == nil || !strings.Contains(err.Error(), "reshard") {
		t.Fatalf("expected reshard refusal, got %v", err)
	}
	// Opened without a shard count, the layout still works unchanged.
	sys, err = adept2.Open(path, adept2.WithOrg(sim.Org()))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	assertSameState(t, reference(t, false), sys)
}

// TestReshardPreservesState walks the layout through 1 → 4 → 2 shards
// and back to 1, comparing the externally observable state at every
// step, with new commands landing correctly in between.
func TestReshardPreservesState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	sys, err := adept2.Open(path, adept2.WithOrg(sim.Org()))
	if err != nil {
		t.Fatal(err)
	}
	i1, _ := runPrefix(t, sys)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{4, 2, 1} {
		if err := adept2.Reshard(path, n, adept2.WithOrg(sim.Org())); err != nil {
			t.Fatalf("reshard to %d: %v", n, err)
		}
		got, err := adept2.Open(path, adept2.WithOrg(sim.Org()))
		if err != nil {
			t.Fatalf("open after reshard to %d: %v", n, err)
		}
		if got.Recovery().Shards != n {
			t.Fatalf("recovered %d shards, want %d", got.Recovery().Shards, n)
		}
		assertSameState(t, reference(t, false), got)
		if err := got.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// The final 1-shard layout keeps working: append a suffix, reopen.
	sys, err = adept2.Open(path, adept2.WithOrg(sim.Org()))
	if err != nil {
		t.Fatal(err)
	}
	runSuffix(t, sys, i1)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := adept2.Open(path, adept2.WithOrg(sim.Org()))
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	assertSameState(t, reference(t, true), got)
}

// TestReshardAfterSuffixOnSharded: reshard a sharded layout that has
// live journal suffixes past its newest generation, then keep working.
func TestReshardAfterSuffixOnSharded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	sys := openCheckpointed(t, path, shardedCfg())
	i1, _ := runPrefix(t, sys)
	if _, _, err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runSuffix(t, sys, i1)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if err := adept2.Reshard(path, 2, adept2.WithOrg(sim.Org())); err != nil {
		t.Fatal(err)
	}
	got := openCheckpointed(t, path, adept2.CheckpointConfig{Shards: 2, Every: -1})
	defer got.Close()
	assertSameState(t, reference(t, true), got)
}

// TestShardedConcurrentLoad drives concurrent data commands, interleaved
// control commands, and background checkpoints through a 4-shard group-
// commit pipeline, then proves a reopen converges (exercised under
// -race: epoch stamping, the exclusive control barrier, parallel capture
// and parallel recovery all run concurrently here).
func TestShardedConcurrentLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	cfg := adept2.CheckpointConfig{Shards: 4, Every: 64}
	sys := openCheckpointed(t, path, cfg)
	if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatal(err)
	}
	const workers = 4
	insts := make([]string, workers)
	for i := range insts {
		res, err := sys.Submit(context.Background(), &adept2.CreateInstance{TypeName: "online_order"})
		if err != nil {
			t.Fatal(err)
		}
		inst := res.(*adept2.Instance)
		insts[i] = inst.ID()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				if _, err := sys.Submit(context.Background(), &adept2.Suspend{Instance: insts[w]}); err != nil {
					t.Error(err)
					return
				}
				if _, err := sys.Submit(context.Background(), &adept2.Resume{Instance: insts[w]}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Control commands race the data traffic through the exclusive
	// barrier.
	for i := 0; i < 4; i++ {
		if _, err := sys.Submit(context.Background(), &adept2.AddUser{User: &adept2.User{ID: fmt.Sprintf("u%d", i), Roles: []string{"clerk"}}}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if err := sys.WaitCheckpoints(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Health(); err != nil {
		t.Fatal(err)
	}
	total := sys.JournalSeq()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	got := openCheckpointed(t, path, cfg)
	defer got.Close()
	if got.JournalSeq() != total {
		t.Fatalf("journal total %d after reopen, want %d", got.JournalSeq(), total)
	}
	assertSameState(t, sys, got)
}

// TestReshardRerunCompletesInterruptedShrink: a crash between the
// manifest commit and the stray-journal sweep of a shrinking reshard
// leaves a layout normal Open refuses; rerunning Reshard sweeps the
// strays (their records are covered by the committed generation) and
// finishes the job.
func TestReshardRerunCompletesInterruptedShrink(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	sys := openCheckpointed(t, path, shardedCfg())
	i1, _ := runPrefix(t, sys)
	runSuffix(t, sys, i1)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	// Keep copies of the upper shard journals, reshard down, then put
	// them back: exactly the state a crash after the manifest commit
	// leaves behind.
	l4 := sharded.Layout{Base: path, Shards: 4}
	saved := map[string][]byte{}
	for k := 2; k < 4; k++ {
		if blob, err := os.ReadFile(l4.JournalPath(k)); err == nil {
			saved[l4.JournalPath(k)] = blob
		}
	}
	if len(saved) == 0 {
		t.Skip("no instance hashed to a shard >= 2")
	}
	if err := adept2.Reshard(path, 2, adept2.WithOrg(sim.Org())); err != nil {
		t.Fatal(err)
	}
	for p, blob := range saved {
		if err := os.WriteFile(p, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := adept2.Open(path, adept2.WithOrg(sim.Org())); err == nil {
		t.Fatal("open must refuse the interrupted-shrink state")
	}
	if err := adept2.Reshard(path, 2, adept2.WithOrg(sim.Org())); err != nil {
		t.Fatalf("reshard rerun must complete the shrink: %v", err)
	}
	got, err := adept2.Open(path, adept2.WithOrg(sim.Org()))
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	assertSameState(t, reference(t, true), got)
}

// TestReshardReportsFailedFinalSync: the directory fsync that makes a
// shrink's stray-journal removals durable fails. Reshard says so rather
// than report a finished job; the crash that follows brings the strays
// back, Open refuses them, and a rerun on a healthy disk finishes.
func TestReshardReportsFailedFinalSync(t *testing.T) {
	mem := vfs.NewMemFS()
	opts := []adept2.Option{adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(shardedCfg()), adept2.WithVFS(mem)}
	sys, err := adept2.Open("wal", opts...)
	if err != nil {
		t.Fatal(err)
	}
	i1, _ := runPrefix(t, sys)
	runSuffix(t, sys, i1)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	l4 := sharded.Layout{Base: "wal", Shards: 4}
	var swept, failed atomic.Bool
	lastSync := vfs.NewFaultFS(mem, func(n int64, op vfs.OpRef) vfs.Decision {
		switch {
		case op.Kind == vfs.OpRemoveAll && op.Path == l4.SnapDir(3):
			swept.Store(true) // the sweep's last removal
		case op.Kind == vfs.OpSyncDir && swept.Load():
			failed.Store(true)
			return vfs.Decision{Err: vfs.ErrInjected}
		}
		return vfs.Decision{}
	})
	err = adept2.Reshard("wal", 2, adept2.WithOrg(sim.Org()), adept2.WithVFS(lastSync))
	if !failed.Load() {
		t.Fatal("the fault script never met the directory fsync after the sweep")
	}
	if !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("reshard with its last fsync failing: %v, want the injected fault", err)
	}
	mem.Crash()
	if _, err := adept2.Open("wal", opts...); err == nil {
		t.Fatal("open must refuse the strays the crash brought back")
	}
	if err := adept2.Reshard("wal", 2, adept2.WithOrg(sim.Org()), adept2.WithVFS(mem)); err != nil {
		t.Fatalf("reshard rerun must complete the shrink: %v", err)
	}
	mem.Crash()
	got, err := adept2.Open("wal", adept2.WithOrg(sim.Org()), adept2.WithVFS(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	assertSameState(t, reference(t, true), got)
}

// TestReshardFloorRefusesFullReplay: after a reshard from N > 1 shards the
// kept journals hold records partitioned under the OLD hash, and the
// journals a shrink removed are gone; if every generation snapshot is
// lost, recovery must refuse full replay (one instance's records may span
// two shards, or live nowhere but the lost snapshots) instead of coming up
// with reordered or missing instances. A one-shard source is the exemption
// that stays: shard 0 holds every record in total order, so losing the
// generation after 1→4 still recovers by full replay.
func TestReshardFloorRefusesFullReplay(t *testing.T) {
	for _, tc := range []struct {
		name   string
		from   int
		to     []int
		refuse bool
	}{
		{"4to2", 4, []int{2}, true},
		{"4to1", 4, []int{1}, true},
		{"4to1to4", 4, []int{1, 4}, true}, // the shrink's floor outlives a regrow
		{"1to4", 1, []int{4}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.ndjson")
			sys := openCheckpointed(t, path, adept2.CheckpointConfig{Shards: tc.from, Every: -1})
			i1, _ := runPrefix(t, sys)
			runSuffix(t, sys, i1)
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
			n := tc.from
			for _, n = range tc.to {
				if err := adept2.Reshard(path, n, adept2.WithOrg(sim.Org())); err != nil {
					t.Fatal(err)
				}
			}
			man, err := sharded.LoadManifest(sharded.ManifestPath(path))
			if err != nil || len(man.ReplayFloors) != n {
				t.Fatalf("manifest floors: %+v err=%v", man, err)
			}
			// Lose every generation part: recovery falls back to a full
			// merged replay, which only the one-shard source survives.
			l := sharded.Layout{Base: path, Shards: n}
			for _, gen := range man.Generations {
				for k, part := range gen.Parts {
					if err := os.WriteFile(filepath.Join(l.SnapDir(k), part.File), []byte("garbage"), 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			got, err := adept2.Open(path, adept2.WithOrg(sim.Org()))
			if !tc.refuse {
				if err != nil {
					t.Fatal(err)
				}
				defer got.Close()
				if !got.Recovery().FullReplay {
					t.Fatalf("recovered without full replay: %+v", got.Recovery())
				}
				assertSameState(t, reference(t, true), got)
				return
			}
			if err == nil {
				got.Close()
				t.Fatalf("open came up with %d instances instead of refusing (floors %v)",
					len(got.Instances()), man.ReplayFloors)
			}
			if !errors.Is(err, adept2.ErrUnrecoverable) || !strings.Contains(err.Error(), "floor") {
				t.Fatalf("expected an unrecoverable reshard-floor refusal, got %v", err)
			}
		})
	}
}
