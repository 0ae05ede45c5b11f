package rpc_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adept2"
	"adept2/internal/rpc"
	"adept2/internal/sim"
	"adept2/internal/vfs"
)

func openSystem(t *testing.T, cfg adept2.CheckpointConfig, opts ...adept2.Option) *adept2.System {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	opts = append([]adept2.Option{adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg)}, opts...)
	sys, err := adept2.Open(path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatal(err)
	}
	return sys
}

// parkedDisk is the disk under a system from openParked: once park is
// called, every journal fsync waits until release, so a record staged in
// between stays unresolved for exactly as long as the test says. Release
// before anything that syncs (SyncDurable, a server drain, Close) is
// meant to finish. The journal's lock is held across the parked fsync, so
// a second record on a parked shard waits for the release too.
type parkedDisk struct {
	parked atomic.Bool
	gate   chan struct{}
	once   sync.Once
}

func (d *parkedDisk) park()    { d.parked.Store(true) }
func (d *parkedDisk) release() { d.once.Do(func() { close(d.gate) }) }

// openParked is openSystem over a parkedDisk. Callers defer release, so
// the cleanups that drain the server and close the system never meet a
// parked fsync.
func openParked(t *testing.T, cfg adept2.CheckpointConfig) (*adept2.System, *parkedDisk) {
	t.Helper()
	d := &parkedDisk{gate: make(chan struct{})}
	fsys := vfs.NewFaultFS(vfs.OS(), func(_ int64, op vfs.OpRef) vfs.Decision {
		if op.Kind == vfs.OpSync && d.parked.Load() {
			<-d.gate
		}
		return vfs.Decision{}
	})
	return openSystem(t, cfg, adept2.WithVFS(fsys)), d
}

func serve(t *testing.T, sys *adept2.System, opts rpc.Options) (*rpc.Server, *rpc.Client) {
	t.Helper()
	srv, err := rpc.NewServer(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Close(ctx)
	})
	cli, err := rpc.Dial(context.Background(), srv.URL())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli
}

// TestRemoteSubmitModes drives all three submission modes through the
// wire and checks the durable-on-resolution contract of each.
func TestRemoteSubmitModes(t *testing.T) {
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sys := openSystem(t, adept2.CheckpointConfig{Shards: shards})
			_, cli := serve(t, sys, rpc.Options{})
			ctx := context.Background()

			// Sync: durable on return, result carries the instance.
			res, err := cli.Submit(ctx, &adept2.CreateInstance{TypeName: "online_order"})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Durable || res.Result == nil || res.Result.Instance == nil {
				t.Fatalf("sync submit: %+v", res)
			}
			id := res.Result.Instance.ID
			wms, err := cli.Watermarks(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if wms[res.Shard] < res.Seq {
				t.Fatalf("sync receipt (%d,%d) not covered by watermark %d", res.Shard, res.Seq, wms[res.Shard])
			}

			// Async: receipt resolves at fsync coverage via the stream.
			rcpt, err := cli.SubmitAsync(ctx, &adept2.CompleteActivity{
				Instance: id, Node: "get_order", User: "ann",
				Outputs: map[string]any{"out": "o-1"},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := rcpt.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			if wms, _ := cli.Watermarks(ctx); wms[rcpt.Shard()] < rcpt.Seq() {
				t.Fatalf("resolved receipt (%d,%d) not fsync-covered", rcpt.Shard(), rcpt.Seq())
			}

			// Batch: durable on return, per-command results.
			results, err := cli.SubmitBatch(ctx, []adept2.Command{
				&adept2.CreateInstance{TypeName: "online_order"},
				&adept2.CreateInstance{TypeName: "online_order"},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != 2 || results[0].Instance == nil || results[1].Instance == nil {
				t.Fatalf("batch results: %+v", results)
			}

			// The server engine agrees with what the wire reported.
			if inst, ok := sys.Instance(id); !ok || inst.NodeState("get_order").String() == "" {
				t.Fatalf("instance %s missing server-side", id)
			}
		})
	}
}

// TestRemoteReceiptsConcurrentSubmitters fans pipelined async
// submissions out of many goroutines over one client and resolves
// every receipt against the single shared watermark stream.
func TestRemoteReceiptsConcurrentSubmitters(t *testing.T) {
	sys := openSystem(t, adept2.CheckpointConfig{Shards: 4})
	_, cli := serve(t, sys, rpc.Options{})
	ctx := context.Background()

	const workers, perWorker = 8, 10
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var receipts []*rpc.Receipt
			for i := 0; i < perWorker; i++ {
				rcpt, err := cli.SubmitAsync(ctx, &adept2.CreateInstance{TypeName: "online_order"})
				if err != nil {
					errs <- err
					return
				}
				receipts = append(receipts, rcpt)
			}
			for _, rcpt := range receipts {
				if err := rcpt.Wait(ctx); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := len(sys.Instances()); got != workers*perWorker {
		t.Fatalf("server holds %d instances, want %d", got, workers*perWorker)
	}
}

// TestRemoteErrorTaxonomy exercises the error envelope: errors.Is
// against the taxonomy sentinels must hold across the network hop.
func TestRemoteErrorTaxonomy(t *testing.T) {
	sys := openSystem(t, adept2.CheckpointConfig{})
	_, cli := serve(t, sys, rpc.Options{})
	ctx := context.Background()

	// Unknown instance → ErrNotFound.
	_, err := cli.Submit(ctx, &adept2.Suspend{Instance: "inst-nope"})
	if !errors.Is(err, adept2.ErrNotFound) {
		t.Fatalf("suspend unknown instance: got %v, want ErrNotFound", err)
	}
	var ae *adept2.Error
	if !errors.As(err, &ae) || ae.Op != "suspend" || ae.Instance != "inst-nope" {
		t.Fatalf("rehydrated envelope lost context: %+v", ae)
	}

	// Unknown type → ErrNotFound; the Instance lookup 404s too.
	if _, err := cli.Submit(ctx, &adept2.CreateInstance{TypeName: "ghost"}); !errors.Is(err, adept2.ErrNotFound) {
		t.Fatalf("create unknown type: got %v", err)
	}
	if _, err := cli.Instance(ctx, "inst-nope"); !errors.Is(err, adept2.ErrNotFound) {
		t.Fatalf("instance read: got %v", err)
	}

	// Completing a node that is not active → ErrConflict.
	res, err := cli.Submit(ctx, &adept2.CreateInstance{TypeName: "online_order"})
	if err != nil {
		t.Fatal(err)
	}
	id := res.Result.Instance.ID
	_, err = cli.Submit(ctx, &adept2.CompleteActivity{Instance: id, Node: "ship", User: "ann"})
	if !errors.Is(err, adept2.ErrConflict) && !errors.Is(err, adept2.ErrNotFound) {
		t.Fatalf("complete inactive node: got %v", err)
	}

	// Suspended instance rejects activity commands → ErrSuspended.
	if _, err := cli.Submit(ctx, &adept2.Suspend{Instance: id}); err != nil {
		t.Fatal(err)
	}
	_, err = cli.Submit(ctx, &adept2.CompleteActivity{
		Instance: id, Node: "get_order", User: "ann", Outputs: map[string]any{"out": "o"}})
	if !errors.Is(err, adept2.ErrSuspended) {
		t.Fatalf("complete while suspended: got %v", err)
	}
}

// TestRemoteDecodeErrors checks pre-dispatch rejection and its metric.
func TestRemoteDecodeErrors(t *testing.T) {
	sys := openSystem(t, adept2.CheckpointConfig{})
	srv, _ := serve(t, sys, rpc.Options{})

	post := func(body string) int {
		resp, err := http.Post(srv.URL()+"/v1/commands", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb struct {
			Error *struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("error envelope: %v", err)
		}
		if eb.Error == nil || eb.Error.Code != string(adept2.CodeInvalid) {
			t.Fatalf("want invalid envelope, got %+v", eb.Error)
		}
		return resp.StatusCode
	}
	if code := post("{not json"); code != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", code)
	}
	if code := post(`{"op":"no_such_op","args":{}}`); code != http.StatusBadRequest {
		t.Fatalf("unknown op: status %d", code)
	}
	if code := post(`{"op":"create","args":{"type":"online_order"},"mode":"asnyc"}`); code != http.StatusBadRequest {
		t.Fatalf("unknown mode: status %d", code)
	}
	snap := sys.Metrics()
	if snap.RPC.DecodeErrors != 3 {
		t.Fatalf("decode errors metric = %d, want 3", snap.RPC.DecodeErrors)
	}
	if ep, ok := snap.RPC.Endpoints["commands"]; !ok || ep.Requests != 3 || ep.Failures != 3 {
		t.Fatalf("commands endpoint family: %+v", snap.RPC.Endpoints)
	}
}

// TestBatchRefusesTrailingData: a frame sent as the unary body is one
// object and nothing after it. Data after the frame is refused as invalid
// before any command runs, while a frame the one-pass reader declines, a
// case-folded "Batch", is still encoding/json's to run.
func TestBatchRefusesTrailingData(t *testing.T) {
	sys := openSystem(t, adept2.CheckpointConfig{})
	srv, _ := serve(t, sys, rpc.Options{})
	const create = `{"op":"create","args":{"type":"online_order"}}`
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL()+"/v1/commands", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		reply, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(reply)
	}
	for _, body := range []string{
		`{"batch":[` + create + `]}{"batch":[` + create + `]}`,
		`{"batch":[` + create + `]} garbage`,
		`{"batch":[` + create + `]}]`,
		`{"batch":[` + create + `],"op":"create"}`,
	} {
		status, reply := post(body)
		if status != http.StatusBadRequest || !strings.Contains(reply, `"code":"invalid"`) {
			t.Errorf("%s: answered %d %s, want 400 invalid", body, status, reply)
		}
	}
	if n := len(sys.Instances()); n != 0 {
		t.Fatalf("refused frames ran %d creates", n)
	}
	for _, body := range []string{
		`{"batch":[` + create + `,` + create + `]}`,
		` {"Batch":[` + create + `,` + create + `]}` + "\n",
	} {
		status, reply := post(body)
		var resp rpc.BatchResponse
		if err := json.Unmarshal([]byte(reply), &resp); status != http.StatusOK || err != nil || len(resp.Results) != 2 || resp.Error != nil {
			t.Errorf("%s: answered %d %s, want 200 and two results", body, status, reply)
		}
	}
	if n := len(sys.Instances()); n != 4 {
		t.Fatalf("two frames of two creates made %d instances", n)
	}
}

// TestOneCommandRoute: commands have one route, health has one, and no
// control-log tail is served: the former batch route, the control-log
// tail and the versioned health route answer 404.
func TestOneCommandRoute(t *testing.T) {
	sys := openSystem(t, adept2.CheckpointConfig{})
	srv, _ := serve(t, sys, rpc.Options{})
	for _, r := range []struct{ method, path string }{
		{http.MethodPost, "/v1/batch"},
		{http.MethodGet, "/v1/control-log"},
		{http.MethodGet, "/v1/control-log?follow=1"},
		{http.MethodGet, "/v1/healthz"},
	} {
		req, err := http.NewRequest(r.method, srv.URL()+r.path, strings.NewReader(`{"batch":[]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: %d, want 404", r.method, r.path, resp.StatusCode)
		}
	}
	if status, _ := get(t, srv.URL()+"/healthz"); status != http.StatusOK {
		t.Fatalf("/healthz: %d", status)
	}
}

// TestClientCancelMidStream parks a Wait on an unflushed receipt and
// cancels it: ErrCanceled with Applied=true, and a later Wait still
// resolves the same receipt.
func TestClientCancelMidStream(t *testing.T) {
	// A parked fsync keeps the record staged past the probe wait.
	sys, disk := openParked(t, adept2.CheckpointConfig{})
	defer disk.release()
	_, cli := serve(t, sys, rpc.Options{})
	ctx := context.Background()
	disk.park()

	rcpt, err := cli.SubmitAsync(ctx, &adept2.CreateInstance{TypeName: "online_order"})
	if err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	err = rcpt.Wait(short)
	if !errors.Is(err, adept2.ErrCanceled) {
		t.Fatalf("canceled wait: got %v", err)
	}
	var ae *adept2.Error
	if !errors.As(err, &ae) || !ae.Applied {
		t.Fatalf("canceled wait must report Applied: %+v", ae)
	}

	// The record is still queued; releasing the disk and forcing the flush
	// resolves it.
	disk.release()
	if err := sys.SyncDurable(); err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithTimeout(ctx, 5*time.Second)
	defer wcancel()
	if err := rcpt.Wait(wctx); err != nil {
		t.Fatalf("post-sync wait: %v", err)
	}
}

// TestServerDrainResolvesReceipts closes the server while receipts are
// in flight: the drain syncs every staged record and the streams emit
// final watermarks, so every receipt issued before Close resolves nil.
func TestServerDrainResolvesReceipts(t *testing.T) {
	sys, disk := openParked(t, adept2.CheckpointConfig{Shards: 4})
	defer disk.release()
	srv, cli := serve(t, sys, rpc.Options{})
	ctx := context.Background()
	cli.Watch() // connect the watermark stream before the drain

	// One instance per shard, so that each parked shard holds exactly one
	// staged record below.
	onShard := map[int]string{}
	for len(onShard) < 4 {
		res, err := cli.Submit(ctx, &adept2.CreateInstance{TypeName: "online_order"})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := onShard[res.Shard]; !ok {
			onShard[res.Shard] = res.Result.Instance.ID
		}
	}
	disk.park()
	var receipts []*rpc.Receipt
	for _, id := range onShard {
		rcpt, err := cli.SubmitAsync(ctx, &adept2.Suspend{Instance: id})
		if err != nil {
			t.Fatal(err)
		}
		receipts = append(receipts, rcpt)
	}
	for _, r := range receipts {
		if wm := sys.DurableWatermark(r.Shard()); wm >= r.Seq() {
			t.Fatalf("receipt (%d,%d) durable before the drain (watermark %d)", r.Shard(), r.Seq(), wm)
		}
	}

	done := make(chan error, len(receipts))
	for _, rcpt := range receipts {
		go func(r *rpc.Receipt) {
			wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
			defer wcancel()
			done <- r.Wait(wctx)
		}(rcpt)
	}
	time.Sleep(50 * time.Millisecond) // let the waits park on the stream

	cctx, ccancel := context.WithTimeout(ctx, 10*time.Second)
	defer ccancel()
	closed := make(chan error, 1)
	go func() { closed <- srv.Close(cctx) }()
	eventually(t, "drain never showed on /healthz", func() bool {
		status, _ := get(t, srv.URL()+"/healthz")
		return status == http.StatusServiceUnavailable
	})
	disk.release() // the drain's sync is what lands the staged records
	if err := <-closed; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for range receipts {
		if err := <-done; err != nil {
			t.Fatalf("receipt across drain: %v", err)
		}
	}

	// Post-drain submissions are rejected with the 503 envelope.
	if _, err := cli.Submit(ctx, &adept2.CreateInstance{TypeName: "online_order"}); err == nil {
		t.Fatal("submit after drain succeeded")
	}
}

// TestRemoteReadEndpoints covers cursor pagination, instance detail,
// worklists, exceptions, and health over the wire.
func TestRemoteReadEndpoints(t *testing.T) {
	sys := openSystem(t, adept2.CheckpointConfig{})
	_, cli := serve(t, sys, rpc.Options{})
	ctx := context.Background()

	var ids []string
	for i := 0; i < 5; i++ {
		res, err := cli.Submit(ctx, &adept2.CreateInstance{TypeName: "online_order"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, res.Result.Instance.ID)
	}

	var seen []string
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 5 {
			t.Fatal("pagination did not terminate")
		}
		page, err := cli.Instances(ctx, cursor, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, inst := range page.Instances {
			seen = append(seen, inst.ID)
		}
		if page.Next == "" {
			break
		}
		cursor = page.Next
	}
	if len(seen) != len(ids) {
		t.Fatalf("paged %d instances, want %d", len(seen), len(ids))
	}

	if _, err := cli.Submit(ctx, &adept2.StartActivity{Instance: ids[0], Node: "get_order", User: "ann"}); err != nil {
		t.Fatal(err)
	}
	detail, err := cli.Instance(ctx, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if detail.ID != ids[0] || detail.Type != "online_order" {
		t.Fatalf("detail: %+v", detail)
	}
	// The count is read off the log (Instance.HistoryLen), not off a copy
	// of the history; it is still the number of events.
	if inst, _ := sys.Instance(ids[0]); detail.HistoryLen == 0 || detail.HistoryLen != len(inst.HistoryEvents()) {
		t.Fatalf("detail reports %d history events, the instance holds %d", detail.HistoryLen, len(inst.HistoryEvents()))
	}

	items, err := cli.WorkItems(ctx, "ann", "", 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(items.Items) == 0 {
		t.Fatal("ann has no offered work items")
	}
	for _, it := range items.Items {
		if it.Node != "get_order" || it.State == "" {
			t.Fatalf("work item: %+v", it)
		}
	}

	open, err := cli.OpenExceptions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(open) != 0 {
		t.Fatalf("unexpected open exceptions: %+v", open)
	}

	sum, err := cli.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Healthy || sum.Shards != 1 || sum.Instances != len(ids) {
		t.Fatalf("health: %+v", sum)
	}
}

// TestStreamBackpressure checks the MaxStreams rejection.
func TestStreamBackpressure(t *testing.T) {
	sys := openSystem(t, adept2.CheckpointConfig{})
	srv, _ := serve(t, sys, rpc.Options{})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < rpc.MaxStreams; i++ {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL()+"/v1/watermarks", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream %d: %d", i, resp.StatusCode)
		}
		buf := make([]byte, 1)
		if _, err := resp.Body.Read(buf); err != nil { // stream is live
			t.Fatal(err)
		}
	}

	over, err := http.Get(srv.URL() + "/v1/watermarks")
	if err != nil {
		t.Fatal(err)
	}
	defer over.Body.Close()
	if over.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stream past the limit: %d, want 503", over.StatusCode)
	}
	if got := sys.Metrics().RPC.OpenStreams; got != rpc.MaxStreams {
		t.Fatalf("open streams gauge: %d", got)
	}
}
