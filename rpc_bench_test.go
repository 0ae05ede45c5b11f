package adept2_test

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"adept2"
	"adept2/internal/rpc"
	"adept2/internal/sim"
)

// The PR 10 remote-submission benches measure the networked command
// plane over loopback HTTP against the same suspend/resume workload the
// PR 5 in-process benches use:
//
//   - RemoteSubmit blocks per command: one line each way on the
//     client's command stream plus one durability round-trip before the
//     writer issues its next command (writers on one client share the
//     stream, so their commands share flushes),
//   - RemoteSubmitAsyncPipeline sends async commands (the server answers
//     at receipt-issue time) and resolves windows of receipts against
//     the shared watermark stream, so the flush cost amortizes across
//     the window.
//
// The server batches naturally, as every served system does: the
// in-flight fsync is the gather window, so the blocking path pays a
// round-trip and an fsync per command while the pipelined path shares
// each fsync across whatever the window caught. On a disk whose fsync
// latency drifts, single runs measure the disk as much as the protocol:
// alternate builds when comparing. Same honest 1-CPU caveat as the local
// benches: the loopback connection and the engine share one core, so
// the gain shown is a floor — real network latency widens it, since the
// blocking path pays that latency per command too.

// remoteBench serves a group-commit system over loopback and runs fn
// across `writers` goroutines, each owning one instance, splitting b.N
// commands between them.
func remoteBench(b *testing.B, writers int, fn func(cli *rpc.Client, id string, n int)) {
	b.Helper()
	path := filepath.Join(b.TempDir(), "wal.ndjson")
	cfg := adept2.CheckpointConfig{Every: -1}
	sys, err := adept2.Open(path, adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg))
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		b.Fatal(err)
	}
	srv, err := rpc.NewServer(sys, rpc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close(context.Background())
	cli, err := rpc.Dial(context.Background(), srv.URL())
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	cli.Watch()
	ids := make([]string, writers)
	for i := range ids {
		res, err := cli.Submit(context.Background(), &adept2.CreateInstance{TypeName: "online_order"})
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = res.Result.Instance.ID
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
			fn(cli, id, n)
		}(ids[w], n)
	}
	wg.Wait()
	b.StopTimer()
	if err := sys.Health(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRemoteSubmit is the blocking remote baseline: every command
// pays a stream round-trip and a durability round-trip in series.
func BenchmarkRemoteSubmit(b *testing.B) {
	for _, writers := range []int{1, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			remoteBench(b, writers, func(cli *rpc.Client, id string, n int) {
				ctx := context.Background()
				for i := 0; i < n; i++ {
					if _, err := cli.Submit(ctx, toggle(id, i)); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkRemoteSubmitAsyncPipeline pipelines windows of 64 async
// commands before resolving their receipts in bulk against the shared
// watermark stream — the remote analogue of SubmitAsyncPipeline, and
// the path that preserves the in-process pipelining win across the
// network.
func BenchmarkRemoteSubmitAsyncPipeline(b *testing.B) {
	for _, writers := range []int{1, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			remoteBench(b, writers, func(cli *rpc.Client, id string, n int) {
				ctx := context.Background()
				receipts := make([]*rpc.Receipt, 0, 64)
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
					r, err := cli.SubmitAsync(ctx, toggle(id, i))
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
