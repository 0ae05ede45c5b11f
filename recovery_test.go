package adept2_test

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"adept2"
	"adept2/internal/durable"
	"adept2/internal/durable/sharded"
	"adept2/internal/persist"
	"adept2/internal/sim"
	"adept2/internal/vfs"
)

// mustSubmit submits cmds in order, fails the test on a refusal, and
// returns the last result.
func mustSubmit(t *testing.T, sys *adept2.System, cmds ...adept2.Command) any {
	t.Helper()
	var res any
	for _, cmd := range cmds {
		var err error
		if res, err = sys.Submit(context.Background(), cmd); err != nil {
			t.Fatalf("%s: %v", cmd.CommandName(), err)
		}
	}
	return res
}

// runPrefix drives a deterministic scenario through the facade: deploy,
// two instances, progress on the first, a bias on the second, an
// evolution. Returns the IDs of the created instances.
func runPrefix(t *testing.T, sys *adept2.System) (string, string) {
	t.Helper()
	mustSubmit(t, sys, &adept2.Deploy{Schema: sim.OnlineOrder()})
	i1 := mustSubmit(t, sys, &adept2.CreateInstance{TypeName: "online_order"}).(*adept2.Instance).ID()
	i2 := mustSubmit(t, sys, &adept2.CreateInstance{TypeName: "online_order"}).(*adept2.Instance).ID()
	mustSubmit(t, sys,
		&adept2.CompleteActivity{Instance: i1, Node: "get_order", User: "ann", Outputs: map[string]any{"out": "o1"}},
		&adept2.CompleteActivity{Instance: i1, Node: "collect_data", User: "ann"},
		&adept2.CompleteActivity{Instance: i1, Node: "compose_order", User: "bob"},
		&adept2.AdHoc{Instance: i2, Ops: sim.OnlineOrderBiasI2()},
		&adept2.Evolve{TypeName: "online_order", Ops: sim.OnlineOrderTypeChange()})
	return i1, i2
}

// runSuffix appends a few more commands past a checkpoint.
func runSuffix(t *testing.T, sys *adept2.System, i1 string) {
	t.Helper()
	mustSubmit(t, sys, &adept2.CompleteActivity{Instance: i1, Node: "send_questions", User: "ann"},
		&adept2.Suspend{Instance: i1}, &adept2.Resume{Instance: i1})
}

// assertSameState fails unless two systems summarize alike (sim.Summary).
func assertSameState(t *testing.T, want, got *adept2.System) {
	t.Helper()
	if d := sim.Diff(sim.Summary(want), sim.Summary(got)); d != "" {
		t.Fatalf("states differ:\n%s", d)
	}
}

// fullReplay makes Open recover by the independent reference path: the
// snapshot directory points at an empty directory, so no generation part
// can load and recovery is the full merged replay of the journals.
func fullReplay(t testing.TB) adept2.Option {
	return adept2.WithCheckpointing(adept2.CheckpointConfig{Every: -1, Dir: t.TempDir()})
}

// openCheckpointed opens the journal at path with the Fig. 1 org and cfg.
func openCheckpointed(t *testing.T, path string, cfg adept2.CheckpointConfig) *adept2.System {
	t.Helper()
	sys, err := adept2.Open(path, adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestSnapshotRecoveryReplaysOnlySuffix is the core acceptance test: with
// a checkpoint present, recovery restores the snapshot and applies exactly
// the records past its sequence number — counted, not assumed.
func TestSnapshotRecoveryReplaysOnlySuffix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.ndjson")
	cfg := adept2.CheckpointConfig{Every: -1} // manual checkpoints only

	sys := openCheckpointed(t, path, cfg)
	i1, _ := runPrefix(t, sys)
	_, snapSeq, err := sys.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if snapSeq != sys.JournalSeq() {
		t.Fatalf("checkpoint seq %d != journal seq %d", snapSeq, sys.JournalSeq())
	}
	runSuffix(t, sys, i1)
	tail := sys.JournalSeq()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover via snapshot + suffix.
	rec := openCheckpointed(t, path, cfg)
	defer rec.Close()
	info := rec.Recovery()
	if info.FullReplay || info.SnapshotSeq != snapSeq {
		t.Fatalf("recovery did not use the snapshot: %+v", info)
	}
	if want := tail - snapSeq; info.Replayed != want {
		t.Fatalf("replayed %d records, want only the %d-record suffix", info.Replayed, want)
	}

	// The state must be identical to a full replay of the same journal.
	full, err := adept2.Open(path, adept2.WithOrg(sim.Org()), fullReplay(t))
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	if !full.Recovery().FullReplay {
		t.Fatal("the reference Open must fully replay")
	}
	assertSameState(t, full, rec)

	// Work continues seamlessly on the recovered system.
	if _, err := rec.Submit(context.Background(), &adept2.CompleteActivity{Instance: i1, Node: "confirm_order", User: "ann"}); err != nil {
		t.Fatalf("continue after snapshot recovery: %v", err)
	}
}

func TestRecoveryFallsBackOnTornSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.ndjson")
	cfg := adept2.CheckpointConfig{Every: -1}

	sys := openCheckpointed(t, path, cfg)
	i1, _ := runPrefix(t, sys)
	if _, _, err := sys.Checkpoint(); err != nil { // older, intact snapshot
		t.Fatal(err)
	}
	runSuffix(t, sys, i1)
	file2, snapSeq2, err := sys.Checkpoint() // newest snapshot, about to be torn
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	blob, err := os.ReadFile(file2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file2, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	rec := openCheckpointed(t, path, cfg)
	defer rec.Close()
	info := rec.Recovery()
	if info.SnapshotSeq == 0 || info.SnapshotSeq >= snapSeq2 {
		t.Fatalf("expected fallback to the older snapshot, got %+v", info)
	}
	if len(info.Fallbacks) == 0 || !strings.Contains(strings.Join(info.Fallbacks, ";"), "torn") {
		t.Fatalf("torn snapshot not diagnosed: %v", info.Fallbacks)
	}
	full, err := adept2.Open(path, adept2.WithOrg(sim.Org()), fullReplay(t))
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	assertSameState(t, full, rec)
}

func TestRecoveryFallsBackToFullReplayWhenAllSnapshotsCorrupt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.ndjson")
	cfg := adept2.CheckpointConfig{Every: -1}

	sys := openCheckpointed(t, path, cfg)
	i1, _ := runPrefix(t, sys)
	file, _, err := sys.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	runSuffix(t, sys, i1)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	rec := openCheckpointed(t, path, cfg)
	defer rec.Close()
	if !rec.Recovery().FullReplay || len(rec.Recovery().Fallbacks) == 0 {
		t.Fatalf("expected full-replay fallback: %+v", rec.Recovery())
	}
	full, err := adept2.Open(path, adept2.WithOrg(sim.Org()), fullReplay(t))
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	assertSameState(t, full, rec)
}

// TestRecoveryTornJournalTailPastSnapshot crashes mid-append after the
// checkpoint: the torn trailing record is discarded, the rest of the
// suffix replays.
func TestRecoveryTornJournalTailPastSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.ndjson")
	cfg := adept2.CheckpointConfig{Every: -1}

	sys := openCheckpointed(t, path, cfg)
	i1, _ := runPrefix(t, sys)
	_, snapSeq, err := sys.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	runSuffix(t, sys, i1)
	tail := sys.JournalSeq()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(fmt.Sprintf(`{"seq":%d,"op":"comple`, tail+1)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rec := openCheckpointed(t, path, cfg)
	defer rec.Close()
	info := rec.Recovery()
	if info.SnapshotSeq != snapSeq || info.Replayed != tail-snapSeq {
		t.Fatalf("torn tail broke suffix replay: %+v", info)
	}
}

// TestRecoveryAcrossCheckpointCrashWindow simulates the one crash window a
// checkpoint has: a snapshot part renamed into place, the global manifest
// not yet rewritten. Recovery must land on the exact live state — from
// the directory listing while the layout has no manifest yet, from the
// previous generation otherwise — and the next checkpoint adopts the
// stranded part as an older generation or sweeps it.
func TestRecoveryAcrossCheckpointCrashWindow(t *testing.T) {
	generations := func(t *testing.T, path string) []sharded.Generation {
		t.Helper()
		man, err := sharded.LoadManifest(sharded.ManifestPath(path))
		if err != nil || man == nil || man.Shards != 1 {
			t.Fatalf("manifest: %+v err=%v", man, err)
		}
		return man.Generations
	}

	t.Run("first-checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "wal.ndjson")
		cfg := adept2.CheckpointConfig{Every: -1, Dir: filepath.Join(dir, "snaps")}

		sys := openCheckpointed(t, path, cfg)
		i1, _ := runPrefix(t, sys)
		file, snapSeq, err := sys.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		runSuffix(t, sys, i1)
		tail := sys.JournalSeq()
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		// The crash: the part is durable, the manifest never got written.
		if err := os.Remove(sharded.ManifestPath(path)); err != nil {
			t.Fatal(err)
		}

		rec := openCheckpointed(t, path, cfg)
		defer rec.Close()
		info := rec.Recovery()
		if info.FullReplay || info.SnapshotSeq != snapSeq || info.Replayed != tail-snapSeq || len(info.Fallbacks) != 0 {
			t.Fatalf("the listed part was not used: %+v", info)
		}
		assertSameState(t, reference(t, true), rec)

		// The next checkpoint writes the manifest and adopts the part.
		if _, _, err := rec.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		gens := generations(t, path)
		if len(gens) != 2 || gens[0].Parts[0].Seq != snapSeq || gens[0].Parts[0].File != filepath.Base(file) || gens[1].Parts[0].Seq != tail {
			t.Fatalf("stranded part not adopted as the older generation: %+v", gens)
		}
		if _, err := os.Stat(file); err != nil {
			t.Fatalf("adopted part: %v", err)
		}
	})

	t.Run("later-checkpoint", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "wal.ndjson")
		cfg := adept2.CheckpointConfig{Every: -1}

		sys := openCheckpointed(t, path, cfg)
		i1, _ := runPrefix(t, sys)
		_, seq1, err := sys.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		before, err := os.ReadFile(sharded.ManifestPath(path))
		if err != nil {
			t.Fatal(err)
		}
		runSuffix(t, sys, i1)
		stranded, seq2, err := sys.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		// The crash: the second part is durable, the manifest still lists
		// only the first generation.
		if err := os.WriteFile(sharded.ManifestPath(path), before, 0o644); err != nil {
			t.Fatal(err)
		}

		rec := openCheckpointed(t, path, cfg)
		defer rec.Close()
		info := rec.Recovery()
		if info.FullReplay || info.SnapshotSeq != seq1 || info.Replayed != seq2-seq1 || len(info.Fallbacks) != 0 {
			t.Fatalf("the previous generation was not used: %+v", info)
		}
		assertSameState(t, reference(t, true), rec)

		// The next checkpoint (at a later cut) sweeps the stranded part.
		if _, err := rec.Submit(context.Background(), &adept2.CompleteActivity{Instance: i1, Node: "confirm_order", User: "ann"}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := rec.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		gens := generations(t, path)
		if len(gens) != 2 || gens[0].Parts[0].Seq != seq1 || gens[1].Parts[0].Seq != seq2+1 {
			t.Fatalf("generations after the crash window: %+v", gens)
		}
		if _, err := os.Stat(stranded); !os.IsNotExist(err) {
			t.Fatalf("stranded part not swept: %v", err)
		}
	})
}

// TestRecoveryEmptyJournalWithSnapshot covers full compaction (every
// record folded into the snapshot — one tombstone record remains so the
// journal stays recognizably compacted) and the genuinely empty journal
// (e.g. freshly rotated) next to a valid snapshot.
func TestRecoveryEmptyJournalWithSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.ndjson")
	cfg := adept2.CheckpointConfig{Every: -1}

	sys := openCheckpointed(t, path, cfg)
	i1, _ := runPrefix(t, sys)
	runSuffix(t, sys, i1)
	_, snapSeq, err := sys.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := adept2.Open(path, adept2.WithOrg(sim.Org()), fullReplay(t))
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()

	if _, err := durable.CompactJournal(path, snapSeq); err != nil {
		t.Fatal(err)
	}
	// Full compaction keeps the newest record as a tombstone, so an Open
	// that cannot reach the snapshot still detects the missing prefix
	// instead of silently coming up empty.
	recs, _, err := persist.LoadJournalSuffixFS(vfs.OS(), path, 0)
	if err != nil || len(recs) != 1 || recs[0].Seq != snapSeq {
		t.Fatalf("tombstone: recs=%+v err=%v", recs, err)
	}
	if _, err := adept2.Open(path, adept2.WithOrg(sim.Org()), fullReplay(t)); err == nil || !strings.Contains(err.Error(), "compacted") {
		t.Fatalf("fully compacted journal without snapshot must refuse, got %v", err)
	}

	rec := openCheckpointed(t, path, cfg)
	info := rec.Recovery()
	if info.SnapshotSeq != snapSeq || info.Replayed != 0 {
		t.Fatalf("compacted journal + snapshot: %+v", info)
	}
	assertSameState(t, full, rec)

	// Work continues and journal seq numbers continue past the snapshot.
	if _, err := rec.Submit(context.Background(), &adept2.CompleteActivity{Instance: i1, Node: "confirm_order", User: "ann"}); err != nil {
		t.Fatal(err)
	}
	if rec.JournalSeq() != snapSeq+1 {
		t.Fatalf("journal seq after compacted recovery = %d, want %d", rec.JournalSeq(), snapSeq+1)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	// A genuinely empty journal next to a valid snapshot (rotation, or a
	// pre-tombstone layout) restores the snapshot and replays nothing.
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	empty := openCheckpointed(t, path, cfg)
	defer empty.Close()
	info = empty.Recovery()
	if info.FullReplay || info.SnapshotSeq != snapSeq || info.Replayed != 0 {
		t.Fatalf("empty journal + snapshot: %+v", info)
	}
	assertSameState(t, full, empty)
}

// TestRecoveryRejectsSnapshotNewerThanJournal: a snapshot claiming a
// sequence number past the journal tail means the journal lost committed
// records — recovery must refuse, not silently truncate history.
func TestRecoveryRejectsSnapshotNewerThanJournal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.ndjson")
	cfg := adept2.CheckpointConfig{Every: -1}

	sys := openCheckpointed(t, path, cfg)
	i1, _ := runPrefix(t, sys)
	runSuffix(t, sys, i1)
	if _, _, err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// Truncate the journal to half its records (simulated tail loss).
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(blob), "\n"), "\n")
	if err := os.WriteFile(path, []byte(strings.Join(lines[:len(lines)/2], "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = adept2.Open(path, adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg))
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("snapshot newer than journal tail must refuse recovery, got %v", err)
	}
}

// TestCompactedJournalRequiresSnapshot: once compacted, a full replay is
// impossible and Open must say so rather than rebuild wrong
// state.
func TestCompactedJournalRequiresSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.ndjson")
	cfg := adept2.CheckpointConfig{Every: -1}

	sys := openCheckpointed(t, path, cfg)
	i1, _ := runPrefix(t, sys)
	_, snapSeq, err := sys.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	runSuffix(t, sys, i1)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := durable.CompactJournal(path, snapSeq); err != nil {
		t.Fatal(err)
	}

	// With the snapshot: suffix recovery works.
	rec := openCheckpointed(t, path, cfg)
	if info := rec.Recovery(); info.SnapshotSeq != snapSeq {
		t.Fatalf("recovery after compaction: %+v", info)
	}
	rec.Close()

	// Without it (no snapshot in reach): hard error.
	if _, err := adept2.Open(path, adept2.WithOrg(sim.Org()), fullReplay(t)); err == nil || !strings.Contains(err.Error(), "compacted") {
		t.Fatalf("compacted journal without snapshot must fail, got %v", err)
	}
}

// TestConcurrentAppendDuringBackgroundSnapshot hammers journaled commands
// from several goroutines with a tiny snapshot threshold, then recovers
// and cross-checks against a full replay. Run under -race in CI.
func TestConcurrentAppendDuringBackgroundSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.ndjson")
	cfg := adept2.CheckpointConfig{Every: 8}

	sys := openCheckpointed(t, path, cfg)
	if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatal(err)
	}
	const workers, each = 4, 12
	var wg sync.WaitGroup
	errs := make(chan error, workers*each)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				res, err := sys.Submit(context.Background(), &adept2.CreateInstance{TypeName: "online_order"})
				if err != nil {
					errs <- err
					return
				}
				inst := res.(*adept2.Instance)
				if _, err := sys.Submit(context.Background(), &adept2.CompleteActivity{Instance: inst.ID(), Node: "get_order", User: "ann", Outputs: map[string]any{"out": "o"}}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := sys.WaitCheckpoints(); err != nil {
		t.Fatalf("background snapshot failed: %v", err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	rec := openCheckpointed(t, path, cfg)
	defer rec.Close()
	info := rec.Recovery()
	if info.SnapshotSeq == 0 {
		t.Fatalf("no background snapshot was used: %+v", info)
	}
	full, err := adept2.Open(path, adept2.WithOrg(sim.Org()), fullReplay(t))
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	if len(rec.Instances()) != workers*each || len(full.Instances()) != workers*each {
		t.Fatalf("instances: rec=%d full=%d", len(rec.Instances()), len(full.Instances()))
	}
	assertSameState(t, full, rec)
}

// TestJournalOnlyEndToEnd drives the facade with no snapshots and
// verifies every command survives recovery.
func TestJournalOnlyEndToEnd(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.ndjson")
	cfg := adept2.CheckpointConfig{Every: -1}

	sys := openCheckpointed(t, path, cfg)
	i1, _ := runPrefix(t, sys)
	runSuffix(t, sys, i1)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	full, err := adept2.Open(path, adept2.WithOrg(sim.Org()), fullReplay(t))
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	rec := openCheckpointed(t, path, cfg)
	defer rec.Close()
	assertSameState(t, full, rec)
}

// TestParentClaimRecoversLikeFullReplay: a snapshot an older build wrote
// may hold a claimed work item (state 1), which no journal record
// carries. Recovery from that snapshot reads the item as offered, which
// is what a full replay of the same journal yields.
func TestParentClaimRecoversLikeFullReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.ndjson")
	cfg := adept2.CheckpointConfig{Every: -1, Dir: filepath.Join(dir, "snaps")}

	sys := openCheckpointed(t, path, cfg)
	mustSubmit(t, sys, &adept2.Deploy{Schema: sim.OnlineOrder()}, &adept2.CreateInstance{TypeName: "online_order"})
	if _, _, err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// Store ann's item as claimed by her, the way such a build did.
	store, err := durable.OpenStore(cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := store.Entries()
	if err != nil || len(entries) == 0 {
		t.Fatalf("entries=%v err=%v", entries, err)
	}
	st, err := store.Load(entries[len(entries)-1])
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(st.Worklist.Items, func(it *adept2.WorkItem) bool { return slices.Contains(it.Offered, "ann") })
	if i < 0 {
		t.Fatal("no item offered to ann")
	}
	st.Worklist.Items[i].State, st.Worklist.Items[i].ClaimedBy = 1, "ann"
	if _, err := store.Write(st); err != nil {
		t.Fatal(err)
	}

	rec := openCheckpointed(t, path, cfg)
	defer rec.Close()
	if info := rec.Recovery(); info.FullReplay {
		t.Fatalf("recovered by full replay, want the snapshot: %+v", info)
	}
	full, err := adept2.Open(path, adept2.WithOrg(sim.Org()), fullReplay(t))
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	assertSameState(t, full, rec)
}

// TestFailedRestoreDoesNotPoisonFallback: a snapshot that passes checksum
// validation and loads but fails mid-restore (a bias op that cannot
// re-apply) must fall back to full replay with a clean slate — earlier the
// half-restored users leaked into the shared org model and made the
// fallback fail with duplicate-ID errors.
func TestFailedRestoreDoesNotPoisonFallback(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.ndjson")
	cfg := adept2.CheckpointConfig{Every: -1, Dir: filepath.Join(dir, "snaps")}

	sys := openCheckpointed(t, path, cfg)
	runPrefix(t, sys) // includes a biased instance
	if _, _, err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// Forge a checksum-valid snapshot whose restore fails: give the biased
	// instance an op that decodes but deletes a node its schema lacks, and
	// rewrite through the store (which recomputes the CRC).
	store, err := durable.OpenStore(cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := store.Entries()
	if err != nil || len(entries) == 0 {
		t.Fatalf("entries=%v err=%v", entries, err)
	}
	st, err := store.Load(entries[len(entries)-1])
	if err != nil {
		t.Fatal(err)
	}
	poisoned := false
	for i := range st.Instances {
		if inst := &st.Instances[i]; len(inst.Bias) > 0 {
			inst.Bias = append(inst.Bias, &adept2.DeleteActivity{ID: "no-such-node"})
			poisoned = true
		}
	}
	if !poisoned {
		t.Fatal("scenario needs a biased instance")
	}
	if _, err := store.Write(st); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(entries[len(entries)-1]); err != nil {
		t.Fatalf("the poisoned snapshot must load and fail in restore: %v", err)
	}

	rec := openCheckpointed(t, path, cfg)
	defer rec.Close()
	info := rec.Recovery()
	if !info.FullReplay || len(info.Fallbacks) == 0 || !strings.Contains(strings.Join(info.Fallbacks, "\n"), "re-apply bias") {
		t.Fatalf("expected clean full-replay fallback from a failed restore, got %+v", info)
	}
	assertSameState(t, sys, rec)
}

// TestV1SnapshotPartFallsBack: a v1 (raw) snapshot container, which only a
// pre-compression build wrote, is refused like a torn part — Open falls
// back past the generation that holds it, and the fallback names the
// container format.
func TestV1SnapshotPartFallsBack(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.ndjson")
	cfg := adept2.CheckpointConfig{Every: -1, Dir: filepath.Join(dir, "snaps")}

	sys := openCheckpointed(t, path, cfg)
	runPrefix(t, sys)
	if _, _, err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// Store the newest part's payload raw under a format 1 header.
	store, err := durable.OpenStore(cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := store.Entries()
	if err != nil || len(entries) == 0 {
		t.Fatalf("entries=%v err=%v", entries, err)
	}
	newest := entries[len(entries)-1]
	st, err := store.Load(newest)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := json.Marshal(map[string]any{"format": 1, "seq": newest.Seq, "len": len(payload), "crc32": crc32.ChecksumIEEE(payload)})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cfg.Dir, newest.File), append(append(hdr, '\n'), payload...), 0o644); err != nil {
		t.Fatal(err)
	}

	rec := openCheckpointed(t, path, cfg)
	defer rec.Close()
	info := rec.Recovery()
	if !info.FullReplay || !strings.Contains(strings.Join(info.Fallbacks, "\n"), "container format 1") {
		t.Fatalf("expected a full-replay fallback naming container format 1, got %+v", info)
	}
	assertSameState(t, sys, rec)
}
