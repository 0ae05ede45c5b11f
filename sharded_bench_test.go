package adept2_test

import (
	"context"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"

	"adept2"
	"adept2/internal/sim"
)

// buildShardedSystem opens a system with n shards (n=1 is the one-journal
// baseline), deploys the demo schema, and creates insts instances.
func buildShardedSystem(b *testing.B, path string, shards, insts int) (*adept2.System, []string) {
	b.Helper()
	cfg := adept2.CheckpointConfig{Every: -1, Shards: shards}
	sys, err := adept2.Open(path, adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		b.Fatal(err)
	}
	ids := make([]string, insts)
	for i := range ids {
		res, err := sys.Submit(context.Background(), &adept2.CreateInstance{TypeName: "online_order"})
		if err != nil {
			b.Fatal(err)
		}
		inst := res.(*adept2.Instance)
		ids[i] = inst.ID()
	}
	return sys, ids
}

// BenchmarkShardedAppend measures journaled command throughput under
// concurrent writers as the shard count grows. shards=1 is the PR 3
// single-committer group-commit pipeline (one fsync queue); more shards
// give concurrent writers independent journal locks, encoders, and fsync
// queues, so throughput can scale past the single-committer plateau.
// Each op is one journaled suspend/resume pair on a goroutine-private
// instance.
func BenchmarkShardedAppend(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d/writers=8", shards), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "wal.ndjson")
			sys, ids := buildShardedSystem(b, path, shards, 256)
			defer sys.Close()
			var next int32
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := ids[(atomic.AddInt32(&next, 1)-1)%int32(len(ids))]
				for pb.Next() {
					if _, err := sys.Submit(context.Background(), &adept2.Suspend{Instance: id}); err != nil {
						b.Error(err)
						return
					}
					if _, err := sys.Submit(context.Background(), &adept2.Resume{Instance: id}); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkShardedRecovery measures Open-time recovery of a 16k-record
// history as the shard count grows: the journals are scanned, decoded,
// and replayed shard-parallel (control-record barriers only), so
// recovery wall-time can drop with the shard count instead of paying one
// serial replay. shards=1 is the one-journal full replay.
func BenchmarkShardedRecovery(b *testing.B) {
	const history = 16384
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d/history=%d", shards, history), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "wal.ndjson")
			sys, ids := buildShardedSystem(b, path, shards, 64)
			for seq := sys.JournalSeq(); seq < history; seq = sys.JournalSeq() {
				id := ids[seq%len(ids)]
				if _, err := sys.Submit(context.Background(), &adept2.Suspend{Instance: id}); err != nil {
					b.Fatal(err)
				}
				if _, err := sys.Submit(context.Background(), &adept2.Resume{Instance: id}); err != nil {
					b.Fatal(err)
				}
			}
			if err := sys.Close(); err != nil {
				b.Fatal(err)
			}
			cfg := adept2.CheckpointConfig{Every: -1, Shards: shards}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys, err := adept2.Open(path, adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg))
				if err != nil {
					b.Fatal(err)
				}
				if info := sys.Recovery(); !info.FullReplay {
					b.Fatalf("expected full replay, got %+v", info)
				}
				sys.Close()
			}
		})
	}
}

// BenchmarkShardedSnapshotRecovery is the checkpointed variant: each
// shard restores its own snapshot (decoded and installed in parallel)
// plus a short suffix.
func BenchmarkShardedSnapshotRecovery(b *testing.B) {
	const history = 16384
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d/history=%d", shards, history), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "wal.ndjson")
			sys, ids := buildShardedSystem(b, path, shards, 512)
			for seq := sys.JournalSeq(); seq < history; seq = sys.JournalSeq() {
				id := ids[seq%len(ids)]
				if _, err := sys.Submit(context.Background(), &adept2.Suspend{Instance: id}); err != nil {
					b.Fatal(err)
				}
				if _, err := sys.Submit(context.Background(), &adept2.Resume{Instance: id}); err != nil {
					b.Fatal(err)
				}
			}
			if _, _, err := sys.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 32; i++ {
				id := ids[i]
				if _, err := sys.Submit(context.Background(), &adept2.Suspend{Instance: id}); err != nil {
					b.Fatal(err)
				}
				if _, err := sys.Submit(context.Background(), &adept2.Resume{Instance: id}); err != nil {
					b.Fatal(err)
				}
			}
			if err := sys.Close(); err != nil {
				b.Fatal(err)
			}
			cfg := adept2.CheckpointConfig{Every: -1, Shards: shards}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys, err := adept2.Open(path, adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg))
				if err != nil {
					b.Fatal(err)
				}
				if info := sys.Recovery(); info.FullReplay {
					b.Fatalf("expected snapshot recovery, got %+v", info)
				}
				sys.Close()
			}
		})
	}
}
