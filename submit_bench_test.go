package adept2_test

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"adept2"
	"adept2/internal/sim"
)

// The PR 5 submission benches compare the three paths of the unified
// command API on the same workload — journaled suspend/resume toggles on
// writer-private instances over a group-commit journal:
//
//   - Submit blocks per command until its record is fsync-covered
//     (one durability round-trip per command per writer),
//   - SubmitAsyncPipeline stages commands and awaits receipts in bulk,
//     so one flush covers a writer's whole window,
//   - SubmitBatch applies a window of commands under one barrier, staging
//     each record as its command applies, and waits once per touched
//     shard after releasing the barrier.
//
// Same honest 1-CPU caveat as the PR 4 sharding benches: this host has a
// single virtio flush queue, so the async/batch gains shown here come
// from removing per-command round-trips; multi-queue storage and real
// cores widen the gap further.

// submitBench runs fn across `writers` goroutines, each owning one
// instance, splitting b.N commands between them. extra appends options
// to the standard group-commit configuration.
func submitBench(b *testing.B, writers int, shards int, extra []adept2.Option, fn func(sys *adept2.System, id string, n int)) {
	b.Helper()
	path := filepath.Join(b.TempDir(), "wal.ndjson")
	cfg := adept2.CheckpointConfig{Every: -1, Shards: shards}
	opts := append([]adept2.Option{adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg)}, extra...)
	sys, err := adept2.Open(path, opts...)
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		b.Fatal(err)
	}
	ids := make([]string, writers)
	for i := range ids {
		res, err := sys.Submit(context.Background(), &adept2.CreateInstance{TypeName: "online_order"})
		if err != nil {
			b.Fatal(err)
		}
		inst := res.(*adept2.Instance)
		ids[i] = inst.ID()
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N / writers
	for w := 0; w < writers; w++ {
		n := per
		if w == 0 {
			n += b.N - per*writers
		}
		wg.Add(1)
		go func(id string, n int) {
			defer wg.Done()
			fn(sys, id, n)
		}(ids[w], n)
	}
	wg.Wait()
	b.StopTimer()
	if err := sys.Health(); err != nil {
		b.Fatal(err)
	}
}

// toggle returns the i-th command of a writer's suspend/resume cycle.
func toggle(id string, i int) adept2.Command {
	if i%2 == 0 {
		return &adept2.Suspend{Instance: id}
	}
	return &adept2.Resume{Instance: id}
}

// BenchmarkSubmit is the blocking baseline: every command pays a full
// durability round-trip before the next one is issued.
func BenchmarkSubmit(b *testing.B) {
	for _, writers := range []int{1, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			submitBench(b, writers, 0, nil, func(sys *adept2.System, id string, n int) {
				ctx := context.Background()
				for i := 0; i < n; i++ {
					if _, err := sys.Submit(ctx, toggle(id, i)); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkSubmitMetricsOff is the blocking workload again with the
// telemetry plane disabled (WithMetricsDisabled), so the delta against
// BenchmarkSubmit is the whole cost of the instrumented hot path: two
// clock reads plus a handful of uncontended atomics per command.
func BenchmarkSubmitMetricsOff(b *testing.B) {
	for _, writers := range []int{1, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			off := []adept2.Option{adept2.WithMetricsDisabled()}
			submitBench(b, writers, 0, off, func(sys *adept2.System, id string, n int) {
				ctx := context.Background()
				for i := 0; i < n; i++ {
					if _, err := sys.Submit(ctx, toggle(id, i)); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkSubmitAsyncPipeline pipelines appends through receipts: a
// window of 64 commands is staged before the writer awaits their
// durability in bulk, so flushes amortize across the window even at one
// writer.
func BenchmarkSubmitAsyncPipeline(b *testing.B) {
	for _, writers := range []int{1, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			submitBench(b, writers, 0, nil, func(sys *adept2.System, id string, n int) {
				ctx := context.Background()
				receipts := make([]*adept2.Receipt, 0, 64)
				drain := func() {
					for _, r := range receipts {
						if err := r.Wait(ctx); err != nil {
							b.Error(err)
							return
						}
					}
					receipts = receipts[:0]
				}
				for i := 0; i < n; i++ {
					r, err := sys.SubmitAsync(ctx, toggle(id, i))
					if err != nil {
						b.Error(err)
						return
					}
					receipts = append(receipts, r)
					if len(receipts) == 64 {
						drain()
					}
				}
				drain()
			})
		})
	}
}

// BenchmarkSubmitBatch applies windows of 64 commands per SubmitBatch
// call: one barrier acquisition, 64 staged records and one group-commit
// wait per window.
func BenchmarkSubmitBatch(b *testing.B) {
	for _, writers := range []int{1, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			submitBench(b, writers, 0, nil, func(sys *adept2.System, id string, n int) {
				ctx := context.Background()
				for i := 0; i < n; {
					win := 64
					if n-i < win {
						win = n - i
					}
					batch := make([]adept2.Command, 0, win)
					for k := 0; k < win; k++ {
						batch = append(batch, toggle(id, i+k))
					}
					if _, err := sys.SubmitBatch(ctx, batch); err != nil {
						b.Error(err)
						return
					}
					i += win
				}
			})
		})
	}
}
