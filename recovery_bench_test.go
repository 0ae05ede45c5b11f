package adept2_test

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"adept2"
	"adept2/internal/sim"
)

// buildRecoveryJournal writes a journal for the recovery benchmarks: a
// fixed population of 16 progressed instances plus `churn` additional
// journaled commands (suspend/resume cycles) that grow the command
// history without growing the live state — the regime where checkpointing
// pays: recovery work should track state size and suffix length, not how
// many commands ever ran. With snapshot=true a checkpoint is written
// after the churn, followed by a fixed 16-command suffix.
func buildRecoveryJournal(b *testing.B, path string, churn int, ckpt adept2.CheckpointConfig, snapshot bool) {
	b.Helper()
	sys, err := adept2.Open(path, adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(ckpt))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		b.Fatal(err)
	}
	var first string
	for i := 0; i < 16; i++ {
		res, err := sys.Submit(context.Background(), &adept2.CreateInstance{TypeName: "online_order"})
		if err != nil {
			b.Fatal(err)
		}
		inst := res.(*adept2.Instance)
		if first == "" {
			first = inst.ID()
		}
		if _, err := sys.Submit(context.Background(), &adept2.CompleteActivity{Instance: inst.ID(), Node: "get_order", User: "ann", Outputs: map[string]any{"out": "o"}}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < churn/2; i++ {
		if _, err := sys.Submit(context.Background(), &adept2.Suspend{Instance: first}); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Submit(context.Background(), &adept2.Resume{Instance: first}); err != nil {
			b.Fatal(err)
		}
	}
	if snapshot {
		if _, _, err := sys.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if _, err := sys.Submit(context.Background(), &adept2.Suspend{Instance: first}); err != nil {
				b.Fatal(err)
			}
			if _, err := sys.Submit(context.Background(), &adept2.Resume{Instance: first}); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := sys.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRecoveryFull measures Open-time recovery by full journal
// replay: cost is O(history) — it scales with every command ever
// journaled.
func BenchmarkRecoveryFull(b *testing.B) {
	for _, n := range []int{256, 2048, 16384} {
		b.Run(fmt.Sprintf("history=%d", n), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "wal.ndjson")
			// No snapshot is written.
			buildRecoveryJournal(b, path, n, adept2.CheckpointConfig{Every: -1}, false)
			replay := fullReplay(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys, err := adept2.Open(path, adept2.WithOrg(sim.Org()), replay)
				if err != nil {
					b.Fatal(err)
				}
				if !sys.Recovery().FullReplay {
					b.Fatal("expected full replay")
				}
				sys.Close()
			}
		})
	}
}

// BenchmarkRecoverySnapshot measures Open-time recovery from a snapshot
// plus a fixed 16-command journal suffix: cost is O(state + suffix),
// independent of the pre-snapshot history length.
func BenchmarkRecoverySnapshot(b *testing.B) {
	cfg := adept2.CheckpointConfig{Every: -1}
	for _, n := range []int{256, 2048, 16384} {
		b.Run(fmt.Sprintf("history=%d", n), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "wal.ndjson")
			buildRecoveryJournal(b, path, n, cfg, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys, err := adept2.Open(path, adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg))
				if err != nil {
					b.Fatal(err)
				}
				if info := sys.Recovery(); info.FullReplay || info.Replayed != 16 {
					b.Fatalf("expected snapshot + 16-record suffix, got %+v", info)
				}
				sys.Close()
			}
		})
	}
}
