package rpc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"adept2"
	"adept2/internal/mining"
	"adept2/internal/obs"
	"adept2/internal/rpc"
	"adept2/internal/sim"
	"adept2/internal/vfs"
)

// get fetches one route of a served plane.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// probeHealth asserts the health definition: /healthz answers the status
// and a body that parses in every case.
func probeHealth(t *testing.T, srv *rpc.Server, wantStatus int) rpc.HealthSummary {
	t.Helper()
	status, body := get(t, srv.URL()+"/healthz")
	if status != wantStatus {
		t.Fatalf("health status: /healthz %d, want %d (%s)", status, wantStatus, body)
	}
	var sum rpc.HealthSummary
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatal(err)
	}
	return sum
}

// openFaulty opens a system on a fault-injecting in-memory filesystem.
func openFaulty(t *testing.T, cfg adept2.CheckpointConfig) (*adept2.System, *vfs.FaultFS) {
	t.Helper()
	ffs := vfs.NewFaultFS(vfs.NewMemFS(), nil)
	sys, err := adept2.Open("wal", adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg), adept2.WithVFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatal(err)
	}
	return sys, ffs
}

// TestOpsRoutes drives the operational routes of the one plane: scrapes
// under live traffic, the health definition of /healthz in every system
// condition, and the routes' availability during a drain.
func TestOpsRoutes(t *testing.T) {
	ctx := context.Background()

	t.Run("scrape under load", func(t *testing.T) {
		sys := openSystem(t, adept2.CheckpointConfig{Every: -1})
		srv, cli := serve(t, sys, rpc.Options{})
		res, err := cli.Submit(ctx, &adept2.CreateInstance{TypeName: "online_order"})
		if err != nil {
			t.Fatal(err)
		}
		id := res.Result.Instance.ID
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() { // concurrent submits while scraping
			defer close(done)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var cmd adept2.Command = &adept2.Suspend{Instance: id}
				if i%2 == 1 {
					cmd = &adept2.Resume{Instance: id}
				}
				if _, err := cli.Submit(ctx, cmd); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		defer func() { close(stop); <-done }()

		status, body := get(t, srv.URL()+"/metrics")
		if status != http.StatusOK {
			t.Fatalf("/metrics: %d: %s", status, body)
		}
		if _, err := obs.CheckExposition(body); err != nil {
			t.Fatalf("/metrics under load: %v", err)
		}

		status, body = get(t, srv.URL()+"/metrics.json")
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var snap obs.Snapshot
		if err := dec.Decode(&snap); status != http.StatusOK || err != nil {
			t.Fatalf("/metrics.json: %d, strict decode: %v", status, err)
		}
		if len(snap.Ops) == 0 {
			t.Error("JSON snapshot has no op families under load")
		}

		status, body = get(t, srv.URL()+"/mine.json?variants=4")
		if rep, err := mining.Decode(body); status != http.StatusOK || err != nil || rep.Instances != 1 {
			t.Fatalf("/mine.json: %d, %v: %s", status, err, body)
		}

		status, body = get(t, srv.URL()+"/trace.json?after=0")
		dec = json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var exp obs.TraceExport
		if err := dec.Decode(&exp); status != http.StatusOK || err != nil {
			t.Fatalf("/trace.json: %d, strict decode: %v", status, err)
		}
		if status, _ = get(t, srv.URL()+"/trace.json?after=x"); status != http.StatusBadRequest {
			t.Fatalf("/trace.json with a bad cursor: %d, want 400", status)
		}

		if sum := probeHealth(t, srv, http.StatusOK); !sum.Healthy || sum.Shards != 1 || sum.Instances != 1 {
			t.Fatalf("healthy summary: %+v", sum)
		}
	})

	t.Run("wedged", func(t *testing.T) {
		sys, ffs := openFaulty(t, adept2.CheckpointConfig{Every: -1})
		srv, cli := serve(t, sys, rpc.Options{})
		ffs.SetScript(vfs.FailFrom(1, vfs.ErrInjected,
			vfs.OpWrite, vfs.OpSync, vfs.OpTruncate, vfs.OpStatFile))
		if _, err := cli.SubmitAsync(ctx, &adept2.CreateInstance{TypeName: "online_order"}); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); sys.HealthInfo().Wedged == nil; {
			if time.Now().After(deadline) {
				t.Fatal("pipeline never wedged")
			}
			time.Sleep(time.Millisecond)
		}
		sum := probeHealth(t, srv, http.StatusServiceUnavailable)
		if sum.Healthy || sum.Err == "" || len(sum.WedgedShards) != 1 {
			t.Fatalf("wedged summary: %+v", sum)
		}
		// The client still gets the parsed body next to the 503 error.
		got, err := cli.Health(ctx)
		if err == nil || got == nil || got.Shards != 1 || got.Healthy {
			t.Fatalf("client health on a wedged server: %+v, %v", got, err)
		}
		ffs.SetScript(nil)
	})

	t.Run("checkpoint failing", func(t *testing.T) {
		sys, ffs := openFaulty(t, adept2.CheckpointConfig{Every: 4})
		srv, cli := serve(t, sys, rpc.Options{})
		ffs.SetScript(vfs.FailFrom(1, vfs.ErrInjected, vfs.OpSyncDir))
		for i := 0; i < 8; i++ {
			if _, err := cli.Submit(ctx, &adept2.CreateInstance{TypeName: "online_order"}); err != nil {
				t.Fatalf("submit during checkpoint failure: %v", err)
			}
		}
		if err := sys.WaitCheckpoints(); err == nil {
			t.Fatal("checkpoint succeeded with snapshot-dir fsync failing")
		}
		sum := probeHealth(t, srv, http.StatusServiceUnavailable)
		if sum.Healthy || !strings.Contains(sum.Err, "checkpoint") || len(sum.WedgedShards) != 0 {
			t.Fatalf("checkpoint-failing summary: %+v", sum)
		}
		ffs.SetScript(nil)
	})

	t.Run("draining", func(t *testing.T) {
		// Hold one slot open: a sync command holds its slot until its
		// record's fsync, which the parked disk holds back. The drain
		// barrier therefore waits, keeping the listener up.
		sys, disk := openParked(t, adept2.CheckpointConfig{Every: -1})
		defer disk.release()
		srv, _ := serve(t, sys, rpc.Options{})
		rs := openRawStream(t, srv.URL())
		disk.park()
		rs.send(createLine)
		eventually(t, "the held command was never applied", func() bool { return len(sys.Instances()) > 0 })

		closed := make(chan error, 1)
		go func() {
			cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			defer cancel()
			closed <- srv.Close(cctx)
		}()
		for deadline := time.Now().Add(5 * time.Second); ; {
			if status, _ := get(t, srv.URL()+"/healthz"); status == http.StatusServiceUnavailable {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("drain never showed on /healthz")
			}
			time.Sleep(time.Millisecond)
		}
		if sum := probeHealth(t, srv, http.StatusServiceUnavailable); !sum.Healthy || !sum.Draining {
			t.Fatalf("draining summary: %+v", sum)
		}
		if status, body := get(t, srv.URL()+"/metrics"); status != http.StatusOK ||
			!bytes.Contains(body, []byte("adept2_rpc_requests_total")) {
			t.Fatalf("/metrics during drain: %d", status)
		}

		disk.release()
		if err := <-closed; err != nil {
			t.Fatalf("drain: %v", err)
		}
	})
}
