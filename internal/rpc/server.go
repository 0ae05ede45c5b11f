package rpc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adept2"
	"adept2/internal/obs"
)

// Options configures a Server.
type Options struct {
	// Addr is the listen address (default "127.0.0.1:0" — loopback,
	// kernel-assigned port; read it back with Addr()).
	Addr string
}

const (
	// MaxInflight bounds request lines — commands and frames — between
	// read and reply, over every connection; past it a command stream's
	// reader (or a unary handler) blocks until a slot frees — the wire
	// plane's backpressure, which the TCP connection passes on to the
	// client.
	MaxInflight = 64
	// MaxStreams bounds concurrently connected watermark subscribers;
	// excess subscriptions are rejected with 503.
	MaxStreams = 8
)

// Server is the one network surface of a System: an HTTP/JSON front
// carrying the command plane and the operational routes (ops.go) on one
// listener. Commands travel as registry (op, args) envelopes — the same
// codec the journal uses — and async durability resolves through the
// watermark stream (see doc.go for the wire protocol).
type Server struct {
	sys *adept2.System
	met *obs.Set
	dec *adept2.WireDecoder // a new command per decode: the unary form and frames

	lis net.Listener
	srv *http.Server

	sema     chan struct{} // request-line backpressure slots
	streams  atomic.Int64  // connected watermark subscribers
	draining atomic.Bool
	drainCh  chan struct{} // closed when drain begins: unblocks slot waiters

	streamCtx    context.Context // canceled after drain syncs: ends streams
	streamCancel context.CancelFunc

	closeOnce sync.Once
	closeErr  error
	serveErr  chan error
}

// NewServer starts serving sys on opts.Addr. The returned server is
// live: Addr() is connectable until Close.
func NewServer(sys *adept2.System, opts Options) (*Server, error) {
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	lis, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: listen %s: %w", opts.Addr, err)
	}
	s := &Server{
		sys:      sys,
		met:      sys.ObsSet(),
		dec:      sys.WireDecoder(false),
		lis:      lis,
		sema:     make(chan struct{}, MaxInflight),
		drainCh:  make(chan struct{}),
		serveErr: make(chan error, 1),
	}
	s.streamCtx, s.streamCancel = context.WithCancel(context.Background())

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/commands", s.handleCommands) // counts request lines itself, see settle
	mux.HandleFunc("GET /v1/instances", s.instrument(obs.EpInstances, s.handleInstances))
	mux.HandleFunc("GET /v1/instances/{id}", s.instrument(obs.EpInstances, s.handleInstance))
	mux.HandleFunc("GET /v1/workitems", s.instrument(obs.EpWorkItems, s.handleWorkItems))
	mux.HandleFunc("GET /v1/exceptions", s.instrument(obs.EpExceptions, s.handleExceptions))
	mux.HandleFunc("GET /v1/watermarks", s.instrument(obs.EpWatermarks, s.handleWatermarks))
	mux.HandleFunc("GET /healthz", s.instrument(obs.EpHealth, s.handleHealth))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics.json", s.handleMetricsJSON)
	mux.HandleFunc("GET /mine.json", s.handleMine)
	mux.HandleFunc("GET /trace.json", s.handleTrace)

	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() { s.serveErr <- s.srv.Serve(lis) }()
	return s, nil
}

// Addr returns the server's bound address (host:port).
func (s *Server) Addr() string { return s.lis.Addr().String() }

// URL returns the server's base URL, the form Dial takes.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close drains gracefully: (1) new commands and subscriptions are
// rejected — 503, or the same envelope in band on an open command
// stream; the ops routes keep answering, /healthz with 503 and
// "draining":true — (2) every command already read is applied and
// answered (bounded by ctx), (3) every staged journal record is forced
// durable, (4) streams end: watermark streams after their final events —
// resolving every receipt issued before Close — command streams by
// closing the reply body, whether or not the client closed its side, and
// (5) the HTTP server shuts down. Close does not close the underlying
// System.
func (s *Server) Close(ctx context.Context) error {
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		close(s.drainCh)
		// Barrier: owning every slot means no command is between read
		// and reply, so the sync below covers everything submitted so far.
		acquired := 0
	barrier:
		for acquired < cap(s.sema) {
			select {
			case s.sema <- struct{}{}:
				acquired++
			case <-ctx.Done():
				s.closeErr = ctx.Err()
				break barrier
			}
		}
		err := s.sys.SyncDurable()
		s.streamCancel()
		if serr := s.srv.Shutdown(ctx); err == nil {
			err = serr
		}
		for i := 0; i < acquired; i++ {
			<-s.sema
		}
		if s.closeErr == nil {
			s.closeErr = err
		}
	})
	return s.closeErr
}

// instrument wraps a handler with the per-endpoint request counter and
// latency histogram (streaming handlers observe the full stream
// lifetime). All obs methods are nil-Set-safe.
func (s *Server) instrument(ep int, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(sr, r)
		s.met.RPCRequest(ep, time.Since(start).Nanoseconds(), sr.code < 400)
	}
}

// statusRecorder captures the response status for the request metrics
// and forwards Flush so streaming handlers keep their flusher; Unwrap
// gives http.ResponseController the connection underneath.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	we, status := toWireError(err)
	writeJSON(w, status, errorBody{Error: we})
}

func drainingErr() error {
	return &adept2.Error{Code: adept2.CodeWedged, Op: "rpc",
		Err: errors.New("rpc: server draining")}
}

// acquireSlot takes one backpressure slot, blocking while the plane is
// at MaxInflight. It fails when ctx ends first or the server is
// draining.
func (s *Server) acquireSlot(ctx context.Context) error {
	if s.draining.Load() {
		return drainingErr()
	}
	select {
	case s.sema <- struct{}{}:
		return nil
	case <-ctx.Done():
		return &adept2.Error{Code: adept2.CodeCanceled, Op: "rpc", Err: ctx.Err()}
	case <-s.drainCh:
		return drainingErr()
	}
}

func (s *Server) releaseSlot() { <-s.sema }

// pending is one request line between its two halves: apply (decode →
// slot → SubmitAsync, or a frame's SubmitBatch) and settle (optional
// durability wait → reply). A command stream's reader hands it to the
// stream's writer; the unary form runs both halves in place.
type pending struct {
	start time.Time
	res   SubmitResult
	batch *BatchResponse  // a frame's reply, durable when set
	rcpt  *adept2.Receipt // sync mode: the reply waits for it
	err   error           // the reply is this error's envelope
	slot  bool            // holds a backpressure slot until settled
}

// apply runs one request line up to the point where its record is
// staged: decode through the registry, take a slot, SubmitAsync. The
// command is dec's, and apply is done with it when SubmitAsync returns:
// the journal has encoded its record by then (effect.release), and
// nothing else keeps it. A reusing dec decodes the next line into it. A
// frame's commands are s.dec's, and the frame runs through SubmitBatch on
// its one slot: what it applied is durable when apply returns.
func (s *Server) apply(ctx context.Context, dec *adept2.WireDecoder, line []byte) (p pending) {
	p.start = time.Now()
	req, err := decodeCommandLine(dec, s.dec, line)
	if err != nil {
		s.met.RPCDecodeError()
		p.err = err
		return p
	}
	if p.err = s.acquireSlot(ctx); p.err != nil {
		return p
	}
	p.slot = true
	if req.batch != nil {
		p.batch = s.submitBatch(ctx, req.batch)
		return p
	}
	rcpt, err := s.sys.SubmitAsync(ctx, req.cmd)
	if err != nil {
		p.err = err
		return p
	}
	p.res = SubmitResult{Op: req.op, Shard: rcpt.Shard(), Seq: rcpt.Seq(), Result: resultSummary(rcpt.Result())}
	if req.mode == "async" {
		p.res.Durable = s.sys.DurableWatermark(p.res.Shard) >= p.res.Seq
	} else {
		p.rcpt = rcpt
	}
	return p
}

// submitBatch lands a frame's commands through SubmitBatch and projects
// the applied results and the first failure onto its reply.
func (s *Server) submitBatch(ctx context.Context, cmds []adept2.Command) *BatchResponse {
	results, err := s.sys.SubmitBatch(ctx, cmds)
	resp := &BatchResponse{Results: make([]*ResultSummary, len(results))}
	for i, res := range results {
		resp.Results[i] = resultSummary(res)
	}
	if err != nil {
		resp.Error, _ = toWireError(err)
	}
	return resp
}

// settle finishes a request line: a sync submission waits for its
// record's fsync, the slot frees, and the line is counted — one request
// and one latency sample per line, a command or a frame, in either
// framing. The result is the error the reply carries, nil for the reply
// appendReply writes.
func (s *Server) settle(ctx context.Context, p *pending) error {
	if p.rcpt != nil {
		p.err = p.rcpt.Wait(ctx)
		p.res.Durable = p.err == nil
	}
	if p.slot {
		s.releaseSlot()
	}
	s.met.RPCRequest(obs.EpCommands, time.Since(p.start).Nanoseconds(), p.err == nil)
	return p.err
}

// appendReply appends a settled line's reply: its frame's BatchResponse,
// or its command's SubmitResult.
func (p *pending) appendReply(b []byte) []byte {
	if p.batch != nil {
		return appendBatchResponse(b, p.batch)
	}
	return appendSubmitResult(b, &p.res)
}

// handleCommands serves POST /v1/commands. An application/x-ndjson body
// is a command stream (streamCommands); any other body is one request
// line, a command or a frame, answered with an HTTP status — the
// stream's length-one case, through the same apply and settle.
func (s *Server) handleCommands(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/x-ndjson") {
		s.streamCommands(w, r)
		return
	}
	body, _ := readBody(r.Body, r.ContentLength) // a body cut short fails the decode in apply
	p := s.apply(r.Context(), s.dec, body)
	if err := s.settle(r.Context(), &p); err != nil {
		writeError(w, err)
		return
	}
	writeReply(w, p.appendReply(make([]byte, 0, 256)))
}

// writeReply answers 200 with an appended reply.
func writeReply(w http.ResponseWriter, reply []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(reply) // a client that left fails the write; nothing is left to tell it
}

// maxPresize caps what readBody allocates on a declared length before the
// bytes arrive; a longer body grows past it as it is read.
const maxPresize = 1 << 20

// readBody reads a request body whole, in one allocation when it declares
// its length.
func readBody(r io.Reader, length int64) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(int(min(max(length, 0), maxPresize)) + bytes.MinRead) // MinRead free is where EOF is read
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// streamCommands serves the full-duplex form: every non-empty request
// line is one command envelope or one frame, every reply line its
// SubmitResult, BatchResponse or {"error":{…}}, in request order. This
// goroutine reads and applies lines in arrival order — so one client's
// commands reach the committer back to back and share flushes — and a
// writer settles and answers them. The stream ends when the client
// closes its side, goes away, or the server's drain reaches its last
// step; every line read by then is answered before the reply body closes.
func (s *Server) streamCommands(w http.ResponseWriter, r *http.Request) {
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil {
		writeError(w, &adept2.Error{Code: adept2.CodeInternal, Op: "rpc",
			Err: fmt.Errorf("rpc: command stream: %w", err)})
		return
	}
	if s.draining.Load() {
		writeError(w, drainingErr())
		return
	}
	ctx, cancel := s.streamContext(r)
	defer cancel()
	// The reader parks on the request body, which an idle client never
	// ends: a past read deadline is what wakes it when the stream is
	// canceled.
	stop := context.AfterFunc(ctx, func() { _ = rc.SetReadDeadline(time.Now()) })
	defer stop()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	_ = rc.Flush() // the client's dial returns on these headers

	// Every settled-later command in the queue holds a slot, so the
	// queue is sized to the slots and only rejected lines can fill it.
	queue := make(chan pending, MaxInflight)
	written := make(chan struct{})
	go func() {
		defer close(written)
		s.writeReplies(ctx, w, rc, queue)
	}()
	dec := s.sys.WireDecoder(true) // one command at a time: see apply
	lines := commandLines(r.Body)
	for lines.Scan() {
		if line := lines.Bytes(); len(bytes.TrimSpace(line)) > 0 {
			queue <- s.apply(ctx, dec, line)
		}
	}
	close(queue)
	<-written
}

// commandLines splits a command stream into lines of any length; the
// scanner reuses one buffer, so a line is valid until the next Scan.
func commandLines(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, math.MaxInt)
	return sc
}

// writeReplies settles queued lines in order and writes one reply line
// each, flushing whenever the queue runs empty. A client that left fails
// the writes; its commands are settled all the same.
func (s *Server) writeReplies(ctx context.Context, w io.Writer, rc *http.ResponseController, queue <-chan pending) {
	enc := json.NewEncoder(w)
	var p pending
	var line []byte
	for p = range queue {
		if err := s.settle(ctx, &p); err != nil {
			we, _ := toWireError(err)
			_ = enc.Encode(errorBody{Error: we})
		} else {
			line = p.appendReply(line[:0])
			_, _ = w.Write(line)
		}
		p = pending{} // an idle stream must not pin its last receipt and result
		if len(queue) == 0 {
			_ = rc.Flush()
		}
	}
}

// streamWriter serializes NDJSON lines from concurrent per-shard
// emitters onto one response and flushes each line immediately.
type streamWriter struct {
	mu  sync.Mutex
	enc *json.Encoder
	fl  http.Flusher
	met *obs.Set
}

func (sw *streamWriter) send(v any) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if err := sw.enc.Encode(v); err != nil {
		return // client gone; the handler context ends the stream
	}
	sw.fl.Flush()
	sw.met.RPCStreamEvents(1)
}

// acquireStream admits one watermark subscriber, rejecting past
// MaxStreams and during drain. The caller must releaseStream.
func (s *Server) acquireStream(w http.ResponseWriter) (*streamWriter, bool) {
	if s.draining.Load() {
		writeError(w, drainingErr())
		return nil, false
	}
	if s.streams.Add(1) > MaxStreams {
		s.streams.Add(-1)
		writeError(w, &adept2.Error{Code: adept2.CodeWedged, Op: "rpc",
			Err: fmt.Errorf("rpc: stream limit %d reached", MaxStreams)})
		return nil, false
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		s.streams.Add(-1)
		writeError(w, &adept2.Error{Code: adept2.CodeInternal, Op: "rpc",
			Err: errors.New("rpc: response not flushable")})
		return nil, false
	}
	s.met.RPCStreamOpen()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	return &streamWriter{enc: json.NewEncoder(w), fl: fl, met: s.met}, true
}

func (s *Server) releaseStream() {
	s.streams.Add(-1)
	s.met.RPCStreamClose()
}

// streamContext merges the request context with the server's drain
// signal so streams end both when the client goes away and on Close.
func (s *Server) streamContext(r *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.streamCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// handleWatermarks serves GET /v1/watermarks. With ?once=1 it answers
// the current watermark snapshot; otherwise it streams NDJSON
// WatermarkEvents — the initial watermark of every shard, then one
// event per advance — until the client disconnects or the server
// drains (emitting Final events after the drain sync).
func (s *Server) handleWatermarks(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("once") != "" {
		writeJSON(w, http.StatusOK, WatermarksSnapshot{Durable: s.sys.DurableWatermarks()})
		return
	}
	sw, ok := s.acquireStream(w)
	if !ok {
		return
	}
	defer s.releaseStream()
	ctx, cancel := s.streamContext(r)
	defer cancel()

	wms := s.sys.DurableWatermarks()
	for k, wm := range wms {
		sw.send(WatermarkEvent{Shard: k, Durable: wm})
	}
	var wg sync.WaitGroup
	for k := range wms {
		k, wm := k, wms[k]
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev := &WatermarkEvent{Shard: k} // sent by pointer: one event a stream, not one an fsync
			for {
				if err := s.sys.WaitDurable(ctx, k, wm+1); err != nil {
					if ctx.Err() == nil {
						we, _ := toWireError(err)
						sw.send(WatermarkEvent{Shard: k, Err: we.Message, Code: we.Code})
					}
					return
				}
				wm = s.sys.DurableWatermark(k)
				ev.Durable = wm
				sw.send(ev)
			}
		}()
	}
	wg.Wait()
	if s.draining.Load() {
		// Drain already synced every staged record; these finals are
		// what resolve the receipts remote clients still hold.
		for k, wm := range s.sys.DurableWatermarks() {
			sw.send(WatermarkEvent{Shard: k, Durable: wm, Final: true})
		}
	}
}

// handleInstances serves GET /v1/instances?cursor=&limit=.
func (s *Server) handleInstances(w http.ResponseWriter, r *http.Request) {
	limit, _ := strconv.Atoi(r.URL.Query().Get("limit"))
	if limit <= 0 {
		limit = 100
	}
	insts, next := s.sys.InstancesPage(r.URL.Query().Get("cursor"), limit)
	page := InstancePage{Instances: make([]*InstanceSummary, len(insts)), Next: next}
	for i, inst := range insts {
		page.Instances[i] = instanceSummary(inst)
	}
	writeJSON(w, http.StatusOK, page)
}

// handleInstance serves GET /v1/instances/{id}.
func (s *Server) handleInstance(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	inst, ok := s.sys.Instance(id)
	if !ok {
		writeError(w, &adept2.Error{Code: adept2.CodeNotFound, Op: "instance", Instance: id,
			Err: fmt.Errorf("rpc: unknown instance %q", id)})
		return
	}
	detail := InstanceDetail{
		InstanceSummary: *instanceSummary(inst),
		HistoryLen:      inst.HistoryLen(),
	}
	for _, node := range inst.View().NodeIDs() {
		if x := inst.ExceptionState(node); x.Armed {
			if detail.Deadlines == nil {
				detail.Deadlines = make(map[string]int64)
			}
			detail.Deadlines[node] = x.Deadline
		}
	}
	writeJSON(w, http.StatusOK, detail)
}

// handleWorkItems serves GET /v1/workitems?user=&cursor=&limit=.
func (s *Server) handleWorkItems(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit, _ := strconv.Atoi(q.Get("limit")) // absent or <= 0: the worklist's default page
	items, next := s.sys.WorkItemsPage(q.Get("user"), q.Get("cursor"), limit)
	page := WorkItemPage{Items: make([]*WorkItemSummary, len(items)), Next: next}
	for i, it := range items {
		page.Items[i] = workItemSummary(it)
	}
	writeJSON(w, http.StatusOK, page)
}

// handleExceptions serves GET /v1/exceptions.
func (s *Server) handleExceptions(w http.ResponseWriter, r *http.Request) {
	open := s.sys.OpenExceptions()
	list := ExceptionList{Exceptions: make([]ExceptionSummary, len(open))}
	for i, x := range open {
		xs := ExceptionSummary{
			Instance: x.Instance,
			Node:     x.Node,
			Kind:     x.Kind.String(),
			Reason:   x.Reason,
			Failures: x.Failures,
		}
		if x.Err != nil {
			xs.Err = x.Err.Error()
		}
		list.Exceptions[i] = xs
	}
	writeJSON(w, http.StatusOK, list)
}
