package rpc_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"adept2"
	"adept2/internal/rpc"
	"adept2/internal/sim"
	"adept2/internal/state"
	"adept2/internal/vfs"
)

// rawStream is POST /v1/commands in its NDJSON form, driven by hand: the
// test writes request lines and reads reply lines itself.
type rawStream struct {
	t       *testing.T
	lines   *io.PipeWriter
	replies *bufio.Scanner
}

// rawReply is a reply line with both shapes' fields.
type rawReply struct {
	rpc.SubmitResult
	Error *rpc.WireError `json:"error"`
}

func openRawStream(t *testing.T, url string) *rawStream {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/commands", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pw.Close(); resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("command stream: HTTP %d", resp.StatusCode)
	}
	return &rawStream{t: t, lines: pw, replies: bufio.NewScanner(resp.Body)}
}

func (rs *rawStream) send(line string) {
	rs.t.Helper()
	if _, err := io.WriteString(rs.lines, line+"\n"); err != nil {
		rs.t.Fatalf("write %q: %v", line, err)
	}
}

// reply reads the next reply line; ok is false once the reply body ended.
func (rs *rawStream) reply() (r rawReply, ok bool) {
	rs.t.Helper()
	return r, rs.read(&r)
}

// batchReply reads the next reply line as a frame's.
func (rs *rawStream) batchReply() (r rpc.BatchResponse, ok bool) {
	rs.t.Helper()
	return r, rs.read(&r)
}

// read decodes the next reply line into v; false once the reply body
// ended.
func (rs *rawStream) read(v any) bool {
	rs.t.Helper()
	if !rs.replies.Scan() {
		return false
	}
	if err := json.Unmarshal(rs.replies.Bytes(), v); err != nil {
		rs.t.Fatalf("reply line %q: %v", rs.replies.Bytes(), err)
	}
	return true
}

// eventually polls cond until it holds, failing the test after 5 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
	}
}

const createLine = `{"op":"create","args":{"type":"online_order"}}`

// TestCommandStreamBadLines: a malformed line, an unknown op and a mode
// that is neither sync nor async each answer an invalid envelope in their
// position and the stream carries on; requests and latency samples count
// commands, not streams.
func TestCommandStreamBadLines(t *testing.T) {
	sys := openSystem(t, adept2.CheckpointConfig{})
	srv, _ := serve(t, sys, rpc.Options{})
	rs := openRawStream(t, srv.URL())

	rs.send(`{not json`)
	rs.send(`{"op":"no_such_op","args":{}}`)
	rs.send("")
	rs.send(`{"op":"create","args":{"type":"online_order"},"mode":"asnyc"}`) // a misspelt async must not become a blocking sync
	rs.send(`{"op":"create","args":{"type":"online_order"},"mode":"\u0061synch"}`)
	rs.send(createLine)
	for i, wantErr := range []bool{true, true, true, true, false} {
		r, ok := rs.reply()
		if !ok {
			t.Fatalf("reply body ended before reply %d", i)
		}
		switch {
		case wantErr && (r.Error == nil || r.Error.Code != string(adept2.CodeInvalid)):
			t.Fatalf("reply %d: want an invalid envelope, got %+v", i, r)
		case !wantErr && (r.Error != nil || !r.Durable || r.Result == nil || r.Result.Instance == nil):
			t.Fatalf("reply %d: want a durable create result, got %+v", i, r)
		}
	}
	if n := len(sys.Instances()); n != 1 {
		t.Fatalf("%d instances: a rejected line was applied", n)
	}

	snap := sys.Metrics()
	ep := snap.RPC.Endpoints["commands"]
	if ep.Requests != 5 || ep.Failures != 4 || ep.Latency.Count != 5 || snap.RPC.DecodeErrors != 4 {
		t.Fatalf("one stream of 5 commands, 4 rejected: requests %d failures %d latency samples %d decode errors %d",
			ep.Requests, ep.Failures, ep.Latency.Count, snap.RPC.DecodeErrors)
	}
}

// TestCommandStreamBadFrames: a frame with data after it, a null element,
// an element that carries a mode, or an unknown op in its third element
// answers one invalid envelope in its position, runs none of its commands,
// and the stream carries on: the good frame after it runs.
func TestCommandStreamBadFrames(t *testing.T) {
	sys := openSystem(t, adept2.CheckpointConfig{})
	srv, _ := serve(t, sys, rpc.Options{})
	rs := openRawStream(t, srv.URL())

	for _, frame := range []string{
		`{"batch":[` + createLine + `,` + createLine + `]} {"batch":[]}`,
		`{"batch":[` + createLine + `,null]}`,
		`{"batch":[` + createLine + `,{"op":"create","args":{"type":"online_order"},"mode":"async"}]}`,
		`{"batch":[` + createLine + `,` + createLine + `,{"op":"no_such_op","args":{}}]}`,
	} {
		head := sys.JournalSeq()
		rs.send(frame)
		if r, ok := rs.reply(); !ok || r.Error == nil || r.Error.Code != string(adept2.CodeInvalid) {
			t.Fatalf("%s: want an invalid envelope, got %+v (replied %t)", frame, r, ok)
		}
		if got := sys.JournalSeq(); got != head {
			t.Fatalf("%s: the journal head moved from %d to %d", frame, head, got)
		}
		rs.send(`{"batch":[` + createLine + `]}`)
		if r, ok := rs.batchReply(); !ok || r.Error != nil || len(r.Results) != 1 || r.Results[0] == nil || r.Results[0].Instance == nil {
			t.Fatalf("the frame after %s: want one create result, got %+v (replied %t)", frame, r, ok)
		}
	}
	if n := len(sys.Instances()); n != 4 {
		t.Fatalf("%d instances, want only the four good frames' creates", n)
	}
}

// TestCommandStreamBatchRefusal: a frame whose third command is refused
// answers the two results before it, durable, and the refusal's envelope,
// and runs nothing after it — on a raw stream, and through
// Client.SubmitBatch, which mirrors System.SubmitBatch.
func TestCommandStreamBatchRefusal(t *testing.T) {
	sys := openSystem(t, adept2.CheckpointConfig{})
	srv, cli := serve(t, sys, rpc.Options{})
	rs := openRawStream(t, srv.URL())
	const ghost = `{"op":"start","args":{"instance":"ghost","node":"get_order","user":"ann"}}`

	rs.send(`{"batch":[` + createLine + `,` + createLine + `,` + ghost + `,` + createLine + `]}`)
	r, ok := rs.batchReply()
	if !ok || len(r.Results) != 2 || r.Error == nil || r.Error.Code != string(adept2.CodeNotFound) {
		t.Fatalf("a frame refused at its third command: %+v (replied %t), want two results and a not_found envelope", r, ok)
	}
	for i, res := range r.Results {
		if res == nil || res.Instance == nil {
			t.Fatalf("result %d of the durable prefix: %+v", i, res)
		}
	}
	if wm, seq := sys.DurableWatermarks()[0], sys.JournalSeq(); wm != seq {
		t.Fatalf("the prefix was answered at watermark %d, journal head %d", wm, seq)
	}

	create := &adept2.CreateInstance{TypeName: "online_order"}
	results, err := cli.SubmitBatch(context.Background(), []adept2.Command{
		create, create, &adept2.StartActivity{Instance: "ghost", Node: "get_order", User: "ann"}, create})
	if !errors.Is(err, adept2.ErrNotFound) || len(results) != 2 || results[0].Instance == nil || results[1].Instance == nil {
		t.Fatalf("Client.SubmitBatch refused at its third command: %+v, %v", results, err)
	}
	if n := len(sys.Instances()); n != 4 {
		t.Fatalf("%d instances, want the two prefixes' four", n)
	}
}

// TestCommandStreamConcurrentSubmitters: 8 sync submitters share one
// client, hence one stream. Every reply reaches the call in its position
// — a misdelivered one would hand a submitter another's instance — and
// the commands reach the committer back to back, so fsyncs are shared.
func TestCommandStreamConcurrentSubmitters(t *testing.T) {
	sys := openSystem(t, adept2.CheckpointConfig{Every: -1})
	_, cli := serve(t, sys, rpc.Options{})
	ctx := context.Background()

	const workers, rounds = 8, 25
	ids := make([]string, workers)
	for w := range ids {
		res, err := cli.Submit(ctx, &adept2.CreateInstance{TypeName: "online_order"})
		if err != nil {
			t.Fatal(err)
		}
		ids[w] = res.Result.Instance.ID
	}
	before := sys.Metrics().Committer
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var cmd adept2.Command = &adept2.Suspend{Instance: ids[w]}
				if i%2 == 1 {
					cmd = &adept2.Resume{Instance: ids[w]}
				}
				if _, err := cli.Submit(ctx, cmd); err != nil {
					t.Errorf("worker %d round %d: %v", w, i, err)
					return
				}
				ghost := fmt.Sprintf("ghost-%d-%d", w, i)
				_, err := cli.Submit(ctx, &adept2.Suspend{Instance: ghost})
				var ae *adept2.Error
				if !errors.As(err, &ae) || ae.Code != adept2.CodeNotFound || ae.Instance != ghost {
					t.Errorf("worker %d round %d: reply for %s was %v", w, i, ghost, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	after := sys.Metrics().Committer
	fsyncs, flushed := after.Fsync.Count-before.Fsync.Count, after.BatchRecords.Sum-before.BatchRecords.Sum
	if flushed != workers*rounds || fsyncs >= flushed {
		t.Fatalf("%d records in %d fsyncs: want %d records in fewer", flushed, fsyncs, workers*rounds)
	}
}

// TestClientSubmitCancel: a ctx that ends inside Submit is ErrCanceled
// across the hop as it is in process, the abandoned reply is discarded
// in its position, and the stream serves the next command.
func TestClientSubmitCancel(t *testing.T) {
	// A parked fsync holds the sync submit past its deadline.
	sys, disk := openParked(t, adept2.CheckpointConfig{})
	defer disk.release()
	_, cli := serve(t, sys, rpc.Options{})
	ctx := context.Background()
	disk.park()

	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	_, err := cli.Submit(short, &adept2.CreateInstance{TypeName: "online_order"})
	if !errors.Is(err, adept2.ErrCanceled) {
		t.Fatalf("canceled submit: got %v, want ErrCanceled", err)
	}
	disk.release() // the abandoned reply comes first, then the next one
	_, err = cli.Submit(ctx, &adept2.Suspend{Instance: "inst-nope"})
	if !errors.Is(err, adept2.ErrNotFound) {
		t.Fatalf("submit after a cancel: got %v, want the suspend's own ErrNotFound", err)
	}
	if n := len(sys.Instances()); n != 1 {
		t.Fatalf("the canceled create left %d instances, want it applied once", n)
	}
}

// TestClientStreamLost cuts the connection under a parked submit: the
// call fails with a taxonomy error, and the next submit dials a new
// stream.
func TestClientStreamLost(t *testing.T) {
	sys, disk := openParked(t, adept2.CheckpointConfig{})
	defer disk.release()
	srv, _ := serve(t, sys, rpc.Options{})
	ctx := context.Background()
	disk.park()

	// A TCP relay in front of the server, whose connections the test can cut.
	relay, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			in, err := relay.Accept()
			if err != nil {
				return
			}
			out, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				in.Close()
				return
			}
			mu.Lock()
			conns = append(conns, in, out)
			mu.Unlock()
			go io.Copy(out, in)
			go io.Copy(in, out)
		}
	}()
	cli, err := rpc.Dial(ctx, "http://"+relay.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	failed := make(chan error, 1)
	go func() {
		_, err := cli.Submit(ctx, &adept2.CreateInstance{TypeName: "online_order"})
		failed <- err
	}()
	eventually(t, "the parked submit never reached the server", func() bool { return len(sys.Instances()) > 0 })
	mu.Lock()
	for _, c := range conns {
		c.Close()
	}
	mu.Unlock()
	select {
	case err := <-failed:
		if !errors.Is(err, adept2.ErrWedged) {
			t.Fatalf("submit on a lost stream: got %v, want ErrWedged", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("submit still parked after its stream was cut")
	}

	if _, err := cli.Submit(ctx, &adept2.Suspend{Instance: "inst-nope"}); !errors.Is(err, adept2.ErrNotFound) {
		t.Fatalf("submit after the loss: got %v, want a reply over a new stream", err)
	}
}

// TestCommandStreamDrain: Close returns with a command stream connected
// whose client never closes its side. A line read before the drain is
// applied, answered and durable; a line read during it gets the draining
// envelope in band; then the reply body ends.
func TestCommandStreamDrain(t *testing.T) {
	// The sync command holds its slot — and with it the drain barrier —
	// while its fsync is parked, which is the time the test has to get a
	// second line in.
	sys, disk := openParked(t, adept2.CheckpointConfig{})
	defer disk.release()
	srv, _ := serve(t, sys, rpc.Options{})
	rs := openRawStream(t, srv.URL())
	disk.park()

	rs.send(createLine)
	eventually(t, "the first line was never applied", func() bool { return len(sys.Instances()) > 0 })
	closed := make(chan error, 1)
	go func() {
		cctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		closed <- srv.Close(cctx)
	}()
	eventually(t, "drain never showed on /healthz", func() bool {
		status, _ := get(t, srv.URL()+"/healthz")
		return status == http.StatusServiceUnavailable
	})
	rs.send(createLine)
	// The server reads the second line while the first still holds the
	// barrier; nothing shows that read, so give it time before the release
	// lets the drain run to its end.
	time.Sleep(100 * time.Millisecond)
	disk.release()

	first, ok := rs.reply()
	if !ok || first.Error != nil || !first.Durable {
		t.Fatalf("line read before the drain: %+v (replied %t)", first, ok)
	}
	if wm := sys.DurableWatermarks()[first.Shard]; wm < first.Seq {
		t.Fatalf("acknowledged (%d,%d) but the watermark is %d", first.Shard, first.Seq, wm)
	}
	second, ok := rs.reply()
	if !ok || second.Error == nil || second.Error.Code != string(adept2.CodeWedged) {
		t.Fatalf("line read during the drain: %+v (replied %t)", second, ok)
	}
	if extra, ok := rs.reply(); ok {
		t.Fatalf("reply body carried on after the drain: %+v", extra)
	}
	if err := <-closed; err != nil {
		t.Fatalf("drain with a connected command stream: %v", err)
	}
	if n := len(sys.Instances()); n != 1 {
		t.Fatalf("%d instances, want only the line read before the drain applied", n)
	}
}

// TestClientSubmitAllocations pins what one sync command costs across the
// hop, both ends and the engine between them counted, for suspend/resume
// — the cheapest command there is, so the row is the hop — and for the
// commands of an order's lifecycle. Root doc.go "Allocation budget" names
// each site. A whole HTTP request per command cost 125; the stream with
// two reflective decodes a command 24; a completion with outputs 31 and a
// suspend or resume 6 while the client encoded args through encoding/json;
// a completion with outputs 25 while the server decoded its outputs
// through encoding/json, and a create 32 while the client did its result;
// a create 16, a start or a complete 7, a completion with outputs 17 and a
// suspend or resume 4 while the server decoded every line into a new
// struct and copied its names; a completion with outputs 11 while the
// engine gathered its writes into a set on the heap and boxed the written
// value again. Each bound is the measured count plus two, suspend/resume's
// plus one.
func TestClientSubmitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	sys, err := adept2.Open("wal", adept2.WithVFS(vfs.NewMemFS()), adept2.WithOrg(sim.Org()),
		adept2.WithCheckpointing(adept2.CheckpointConfig{Every: -1}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatal(err)
	}
	_, cli := serve(t, sys, rpc.Options{})
	ctx := context.Background()
	const runs = 200
	submit := func(cmd adept2.Command) *rpc.SubmitResult {
		res, err := cli.Submit(ctx, cmd)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	row := func(name string, bound float64, next func() adept2.Command) {
		t.Helper()
		allocs := testing.AllocsPerRun(runs, func() { submit(next()) })
		t.Logf("one remote %s allocates %.1f objects", name, allocs)
		if allocs > bound {
			t.Errorf("one remote %s allocates %.1f objects, want at most %.0f", name, allocs, bound)
		}
	}
	create := &adept2.CreateInstance{TypeName: "online_order"}
	row("create", 16, func() adept2.Command { return create })
	// One instance a run, and one for the warm-up call AllocsPerRun makes;
	// a row's commands are built before they are counted.
	ids := make([]string, runs+1)
	for i := range ids {
		ids[i] = submit(create).Result.Instance.ID
	}
	each := func(build func(id string) adept2.Command) func() adept2.Command {
		cmds := make([]adept2.Command, len(ids))
		for i, id := range ids {
			cmds[i] = build(id)
		}
		i := -1
		return func() adept2.Command { i++; return cmds[i] }
	}
	row("start", 5, each(func(id string) adept2.Command {
		return &adept2.StartActivity{Instance: id, Node: "get_order", User: "ann"}
	}))
	row("complete with outputs", 11, each(func(id string) adept2.Command {
		return &adept2.CompleteActivity{Instance: id, Node: "get_order", User: "ann", Outputs: map[string]any{"out": "order"}}
	}))
	row("complete", 5, each(func(id string) adept2.Command {
		return &adept2.CompleteActivity{Instance: id, Node: "collect_data", User: "ann"}
	}))
	suspend, resume := &adept2.Suspend{Instance: ids[0]}, &adept2.Resume{Instance: ids[0]}
	n := 0
	row("suspend/resume", 3, func() adept2.Command {
		if n++; n%2 == 1 {
			return suspend
		}
		return resume
	})
}

// TestPipelinedStreamJournalMatchesLocal: one seeded stream of creates,
// starts, completions with outputs and without, suspensions, resumptions
// and failures is submitted in process — one Submit at a time, and now
// and then a run of them through one SubmitBatch — and over one command
// stream as async lines and frames in windows of 64, so the server's
// reader decodes each line into the structs its predecessor used while
// that one's record is staged and flushed, and a frame's into the shared
// decoder's. Both systems run on one fixed clock and one exception policy:
// every reply must report the in-process outcome — a frame's, its applied
// prefix and first refusal — every fail record must carry the reaction
// the policy chose (a retry, a skip or a suspension), and the two
// journals must be byte-identical. CI runs
// it under -race.
func TestPipelinedStreamJournalMatchesLocal(t *testing.T) {
	ctx := context.Background()
	clock := adept2.WithClock(func() time.Time { return time.Unix(1_700_000_000, 0) })
	// RetryThenSuspend, except that a failed delivery is skipped and a
	// failed packing suspends at once.
	retry := adept2.RetryThenSuspend(1, time.Minute)
	policy := adept2.WithExceptionPolicy(adept2.PolicyFunc(func(x adept2.Exception) adept2.Reaction {
		switch x.Node {
		case "deliver_goods":
			return adept2.Reaction{Action: adept2.ActionSkip}
		case "pack_goods":
			return adept2.Reaction{Action: adept2.ActionSuspend}
		}
		return retry.Decide(x)
	}))
	open := func(name string) (*adept2.System, string) {
		path := filepath.Join(t.TempDir(), name)
		sys, err := adept2.Open(path, adept2.WithOrg(sim.Org()),
			adept2.WithCheckpointing(adept2.CheckpointConfig{Every: -1}), clock, policy)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sys.Close() })
		if _, err := sys.Submit(ctx, &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
			t.Fatal(err)
		}
		return sys, path
	}
	local, localPath := open("local.ndjson")
	remote, remotePath := open("remote.ndjson")

	// The stream is proposed from the in-process system's state and
	// applied there as it is proposed: a line's command by Submit, a
	// frame's, all proposed from the state before it, by SubmitBatch. want
	// holds each line's outcome: a command's code, a frame's applied count
	// and code.
	rng := rand.New(rand.NewSource(1))
	type line struct {
		cmds  []adept2.Command
		frame bool
		want  string
	}
	var ids []string
	var lines []line
	n, frames := 0, 0
	kinds := map[string]int{}
	applied := func(cmd adept2.Command, res any) {
		if inst, ok := res.(*adept2.Instance); ok {
			ids = append(ids, inst.ID())
		}
		kind := cmd.CommandName()
		if c, ok := cmd.(*adept2.CompleteActivity); ok && c.Outputs != nil {
			kind += "+outputs"
		}
		kinds[kind]++
	}
	for n < 640 {
		if rng.Intn(8) > 0 {
			cmd := proposeMixed(rng, local, ids)
			res, err := local.Submit(ctx, cmd)
			if err == nil {
				applied(cmd, res)
			}
			lines = append(lines, line{cmds: []adept2.Command{cmd}, want: codeString(err)})
			n++
			continue
		}
		batch := make([]adept2.Command, 1+rng.Intn(6))
		for i := range batch {
			batch[i] = proposeMixed(rng, local, ids)
		}
		results, err := local.SubmitBatch(ctx, batch)
		for i, res := range results {
			applied(batch[i], res)
		}
		lines = append(lines, line{cmds: batch, frame: true, want: fmt.Sprintf("%d applied, %q", len(results), codeString(err))})
		n += len(batch)
		frames++
	}
	for _, kind := range []string{"create", "start", "complete", "complete+outputs", "suspend", "resume", "fail"} {
		if kinds[kind] == 0 {
			t.Fatalf("the stream applied no %s (applied: %v)", kind, kinds)
		}
	}
	if frames == 0 {
		t.Fatal("the stream sent no frame")
	}

	srv, _ := serve(t, remote, rpc.Options{})
	rs := openRawStream(t, srv.URL())
	for start := 0; start < len(lines); start += 64 {
		window := lines[start:min(start+64, len(lines))]
		var body []byte
		for _, l := range window {
			envs := make([]rpc.Envelope, len(l.cmds))
			for i, cmd := range l.cmds {
				op, args, err := adept2.EncodeCommand(cmd)
				if err != nil {
					t.Fatal(err)
				}
				envs[i] = rpc.Envelope{Op: op, Args: args}
			}
			var enc []byte
			if l.frame {
				enc, _ = json.Marshal(struct {
					Batch []rpc.Envelope `json:"batch"`
				}{envs})
			} else {
				enc, _ = json.Marshal(struct {
					rpc.Envelope
					Mode string `json:"mode"`
				}{envs[0], "async"})
			}
			body = append(append(body, enc...), '\n')
		}
		written := make(chan error, 1)
		go func() { _, err := rs.lines.Write(body); written <- err }()
		for i, l := range window {
			var got string
			var ok bool
			if l.frame {
				var r rpc.BatchResponse
				r, ok = rs.batchReply()
				code := ""
				if r.Error != nil {
					code = r.Error.Code
				}
				got = fmt.Sprintf("%d applied, %q", len(r.Results), code)
			} else {
				var r rawReply
				r, ok = rs.reply()
				if r.Error != nil {
					got = r.Error.Code
				}
			}
			if !ok {
				t.Fatalf("reply body ended at line %d", start+i)
			}
			if got != l.want {
				t.Fatalf("line %d (%#v): remote %s, in process %s", start+i, l.cmds, got, l.want)
			}
		}
		if err := <-written; err != nil {
			t.Fatal(err)
		}
	}
	if err := remote.SyncDurable(); err != nil {
		t.Fatal(err)
	}
	lj, err := os.ReadFile(localPath)
	if err != nil {
		t.Fatal(err)
	}
	rj, err := os.ReadFile(remotePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lj, rj) {
		t.Fatalf("journals differ: %d bytes in process, %d over the stream, first difference at byte %d",
			len(lj), len(rj), firstDifference(lj, rj))
	}
	reactions := map[string]int{}
	for _, line := range bytes.Split(lj, []byte("\n")) {
		var rec struct {
			Op   string
			Args adept2.FailActivity
		}
		if json.Unmarshal(line, &rec) != nil || rec.Op != "fail" {
			continue
		}
		reactions[rec.Args.Reaction]++
		if (rec.Args.Reaction == "retry") != (rec.Args.RetryAt == time.Unix(1_700_000_060, 0).UnixNano()) {
			t.Fatalf("fail record %+v: the policy retries after a minute", rec.Args)
		}
	}
	if reactions["retry"] == 0 || reactions["skip"] == 0 || reactions["suspend"] == 0 || len(reactions) != 3 {
		t.Fatalf("fail records carry the reactions %v, want each of retry, skip and suspend, and no other", reactions)
	}
	t.Logf("%d commands in %d lines, %d of them frames, applied %v, failures reacted to %v; both journals hold the same %d bytes",
		n, len(lines), frames, kinds, reactions, len(lj))
}

// proposeMixed picks the next command of the pipelined stream from sys's
// state: mostly work on a random instance's activated or running node,
// with creations, suspensions, resumptions and failures mixed in.
func proposeMixed(rng *rand.Rand, sys *adept2.System, ids []string) adept2.Command {
	r := rng.Intn(100)
	if len(ids) == 0 || r < 12 {
		return &adept2.CreateInstance{TypeName: "online_order"}
	}
	id := ids[rng.Intn(len(ids))]
	switch {
	case r < 20:
		return &adept2.Suspend{Instance: id}
	case r < 30:
		return &adept2.Resume{Instance: id}
	}
	inst, _ := sys.Instance(id)
	v := inst.View()
	var ready []string
	for _, node := range v.NodeIDs() {
		if st := inst.NodeState(node); st == state.Activated || st == state.Running {
			ready = append(ready, node)
		}
	}
	if len(ready) == 0 {
		return &adept2.Suspend{Instance: id}
	}
	node := ready[rng.Intn(len(ready))]
	n, _ := v.Node(node)
	user := ""
	if users := sys.Org().UsersInRole(n.Role); len(users) > 0 {
		user = users[0]
	}
	running := inst.NodeState(node) == state.Running
	switch {
	case r < 50:
		return &adept2.StartActivity{Instance: id, Node: node, User: user}
	case r < 60 && running:
		return &adept2.FailActivity{Instance: id, Node: node, User: user, Reason: "courier lost the parcel"}
	}
	var outputs map[string]any
	if node == "get_order" {
		outputs = map[string]any{"out": fmt.Sprintf("order-%d", rng.Intn(1000))}
	}
	return &adept2.CompleteActivity{Instance: id, Node: node, User: user, Outputs: outputs}
}

// codeString is an error's taxonomy code as a reply names it, "" for nil.
func codeString(err error) string {
	var ae *adept2.Error
	if errors.As(err, &ae) {
		return string(ae.Code)
	}
	if err != nil {
		return "untyped: " + err.Error()
	}
	return ""
}

// firstDifference is the index of the first byte where a and b differ.
func firstDifference(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// TestCallerCannotSuppressReoffer: a failure's reaction is the System's,
// whoever submits it. A FailActivity whose submitter sets Pending, RetryAt
// and Reaction, in process and as a remote line, is with no policy
// journaled without them and re-offered at once, and stays offered
// through five hourly sweeps; under RetryThenSuspend both paths journal
// the policy's retry, and nothing else.
func TestCallerCannotSuppressReoffer(t *testing.T) {
	ctx := context.Background()
	for _, policy := range []string{"none", "retry-then-suspend"} {
		for _, path := range []string{"in process", "remote"} {
			t.Run(policy+"/"+path, func(t *testing.T) {
				now := time.Unix(1_700_000_000, 0)
				opts := []adept2.Option{adept2.WithOrg(sim.Org()), adept2.WithClock(func() time.Time { return now }),
					adept2.WithCheckpointing(adept2.CheckpointConfig{Every: -1})}
				want := `{"instance":"inst-000001","node":"get_order","user":"ann","reason":"forged"}`
				if policy != "none" {
					opts = append(opts, adept2.WithExceptionPolicy(adept2.RetryThenSuspend(3, time.Minute)))
					want = fmt.Sprintf(`{"instance":"inst-000001","node":"get_order","user":"ann","reason":"forged","retryAt":%d,"reaction":"retry"}`,
						now.Add(time.Minute).UnixNano())
				}
				journal := filepath.Join(t.TempDir(), "wal.ndjson")
				sys, err := adept2.Open(journal, opts...)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { sys.Close() })
				submit := func(cmd adept2.Command) error {
					_, err := sys.Submit(ctx, cmd)
					return err
				}
				if path == "remote" {
					_, cli := serve(t, sys, rpc.Options{})
					submit = func(cmd adept2.Command) error {
						_, err := cli.Submit(ctx, cmd)
						return err
					}
				}
				for _, cmd := range []adept2.Command{
					&adept2.Deploy{Schema: sim.OnlineOrder()},
					&adept2.CreateInstance{TypeName: "online_order"},
					&adept2.StartActivity{Instance: "inst-000001", Node: "get_order", User: "ann"},
					&adept2.FailActivity{Instance: "inst-000001", Node: "get_order", User: "ann", Reason: "forged",
						RetryAt: now.Add(24 * time.Hour).UnixNano(), Pending: true, Reaction: "suspend"},
				} {
					if err := submit(cmd); err != nil {
						t.Fatalf("%s: %v", cmd.CommandName(), err)
					}
				}
				if err := sys.SyncDurable(); err != nil {
					t.Fatal(err)
				}
				var rec struct{ Args json.RawMessage }
				if err := json.Unmarshal(lastRecord(t, journal), &rec); err != nil || string(rec.Args) != want {
					t.Fatalf("the fail record is %s (%v), want %s", rec.Args, err, want)
				}
				inst, _ := sys.Instance("inst-000001")
				offered := func() bool {
					items := sys.WorkItems("ann")
					return len(items) == 1 && items[0].Node == "get_order"
				}
				if inst.Suspended() || inst.ExceptionState("get_order").Pending || offered() == (policy != "none") {
					t.Fatalf("after the failure: suspended %v, pending %v, offered %v", inst.Suspended(), inst.ExceptionState("get_order").Pending, offered())
				}
				for i := 0; i < 5 && policy == "none"; i++ {
					now = now.Add(time.Hour)
					if _, err := sys.SweepDeadlines(ctx, now); err != nil || !offered() {
						t.Fatalf("sweep %d: %v, offered %v", i+1, err, offered())
					}
				}
			})
		}
	}
}

// lastRecord returns the last line of a journal.
func lastRecord(t *testing.T, journal string) []byte {
	t.Helper()
	b, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}
