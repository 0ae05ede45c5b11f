package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"adept2"
	"adept2/internal/jsonx"
)

// cmdStream is the client's end of one POST /v1/commands exchange in its
// NDJSON form: command lines and frames go down the request body, reply
// lines come back up the response body in the same order, so the oldest
// waiting call owns the next reply and nothing is correlated by id.
type cmdStream struct {
	cancel context.CancelFunc // ends the HTTP exchange
	body   *io.PipeWriter     // request body, one line per command or frame

	mu    sync.Mutex
	calls []*call // awaiting replies, oldest at head
	head  int
	lost  error // why the stream ended; set once
}

// call is one submission parked on its reply. done is buffered so the
// reply reader never blocks on a call whose submitter gave up. A call
// whose submitter took its reply is reused (Client.free); one abandoned
// to a canceled ctx still owns a place in the stream and is not.
type call struct {
	done  chan struct{}
	op    string // as sent: an acknowledgement names it back
	frame bool   // the line was a frame: its reply is batch's
	reply replyLine
	batch BatchResponse
	err   error
}

// openCommands dials the command stream. ctx bounds only the handshake;
// the stream then lives until it is lost or the client closes.
func (c *Client) openCommands(ctx context.Context) (*cmdStream, error) {
	sctx, cancel := context.WithCancel(c.ctx)
	stop := context.AfterFunc(ctx, cancel)
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(sctx, http.MethodPost, c.base+"/v1/commands", pr)
	if err != nil {
		stop()
		cancel()
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if !stop() && err == nil { // ctx ended after the headers came: the exchange is already canceled
		resp.Body.Close()
		err = ctx.Err()
	}
	if err == nil && resp.StatusCode != http.StatusOK {
		err = responseError(resp)
		resp.Body.Close()
	}
	if err != nil {
		cancel()
		if ctx.Err() != nil {
			return nil, &adept2.Error{Code: adept2.CodeCanceled, Op: "rpc", Err: ctx.Err()}
		}
		return nil, streamLost(err)
	}
	st := &cmdStream{cancel: cancel, body: pw}
	c.wg.Add(1)
	go c.readReplies(st, resp.Body)
	return st, nil
}

// streamLost is what a submission gets when the stream fails under it,
// or cannot be dialed: the remote pipeline is unavailable, and a command
// whose line had left may or may not have been applied.
func streamLost(cause error) error {
	var ae *adept2.Error
	if errors.As(cause, &ae) {
		return cause // the server said why (draining, …)
	}
	return &adept2.Error{Code: adept2.CodeWedged, Op: "rpc",
		Err: fmt.Errorf("rpc: command stream lost: %w", cause)}
}

// send writes the line c.out holds down the stream, dialing it if there
// is none, and returns the call, named op, that will receive its reply (a
// frame's reply if frame). Callers hold cmdMu.
func (c *Client) send(ctx context.Context, op string, frame bool) (*call, error) {
	if err := ctx.Err(); err != nil {
		return nil, &adept2.Error{Code: adept2.CodeCanceled, Op: op, Err: err}
	}
	var cl *call
	if n := len(c.free); n > 0 {
		cl, c.free = c.free[n-1], c.free[:n-1]
	} else {
		cl = &call{done: make(chan struct{}, 1)}
	}
	cl.op, cl.frame = op, frame
	st := c.cmds
	if st == nil || st.push(cl) != nil {
		var err error
		if st, err = c.openCommands(ctx); err != nil {
			return nil, err
		}
		c.cmds = st
		if err := st.push(cl); err != nil {
			return nil, err
		}
	}
	if _, err := st.body.Write(c.out.line); err != nil {
		st.fail(err) // cl is queued: it fails with the rest
	}
	return cl, nil
}

// lineBuf builds command lines: a command's args are appended to args
// first, by the journal's own appender (adept2.AppendCommandArgs), and line
// is then built around them. Both are reused from line to line.
type lineBuf struct {
	line, args []byte
}

// encode builds cmd's line, byte for byte what encoding/json makes of a
// commandRequest, and returns its op.
func (lb *lineBuf) encode(cmd adept2.Command, mode string) (string, error) {
	op, b, err := lb.appendEnvelope(lb.line[:0], cmd)
	if err != nil {
		return "", err
	}
	b = append(b, `,"mode":`...)
	b = jsonx.AppendString(b, mode)
	lb.line = append(b, "}\n"...)
	return op, nil
}

// encodeFrame builds the frame of cmds, {"batch":[…]}, byte for byte
// what encoding/json writes for it, each envelope built as a command
// line's is.
func (lb *lineBuf) encodeFrame(cmds []adept2.Command) error {
	b := append(lb.line[:0], `{"batch":[`...)
	for i, cmd := range cmds {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if _, b, err = lb.appendEnvelope(b, cmd); err != nil {
			return err
		}
		b = append(b, '}')
	}
	lb.line = append(b, "]}\n"...)
	return nil
}

// appendEnvelope appends cmd's Envelope to b as encoding/json writes it,
// short of its closing brace, and returns its op. It refuses, with
// ErrInvalid, what Submit refuses for the journal's sake — a string that
// is not UTF-8, an output with no JSON form — so such a command never
// leaves the client.
func (lb *lineBuf) appendEnvelope(b []byte, cmd adept2.Command) (string, []byte, error) {
	op, args, err := adept2.AppendCommandArgs(lb.args[:0], cmd)
	if err != nil {
		return "", nil, err
	}
	lb.args = args
	b = append(b, `{"op":`...)
	b = jsonx.AppendString(b, op)
	b = append(b, `,"args":`...)
	return op, append(b, args...), nil
}

// release returns a call whose reply its submitter has taken.
func (c *Client) release(cl *call) {
	cl.reply, cl.batch = replyLine{}, BatchResponse{}
	c.cmdMu.Lock()
	c.free = append(c.free, cl)
	c.cmdMu.Unlock()
}

// push queues a call for the next unclaimed reply; it must precede the
// line's write, or the reply could overtake it.
func (st *cmdStream) push(cl *call) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.lost == nil {
		st.calls = append(st.calls, cl)
	}
	return st.lost
}

// pop takes the oldest waiting call, nil when none waits.
func (st *cmdStream) pop() *call {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.head == len(st.calls) {
		return nil
	}
	cl := st.calls[st.head]
	st.calls[st.head] = nil
	if st.head++; st.head == len(st.calls) {
		st.calls, st.head = st.calls[:0], 0
	}
	return cl
}

// fail ends the stream: the exchange is canceled, a writer parked on the
// request body is released, and every waiting call gets the loss. The
// next submit dials a new stream.
func (st *cmdStream) fail(cause error) {
	st.cancel()
	st.body.CloseWithError(cause)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.lost != nil {
		return
	}
	st.lost = streamLost(cause)
	for _, cl := range st.calls[st.head:] {
		cl.err = st.lost
		cl.done <- struct{}{}
	}
	st.calls, st.head = nil, 0
}

// readReplies hands each reply line to the oldest waiting call until the
// reply body ends — the server drained, the connection broke, or the
// client closed — which loses the stream.
func (c *Client) readReplies(st *cmdStream, body io.ReadCloser) {
	defer c.wg.Done()
	defer body.Close()
	lines := commandLines(body)
	for lines.Scan() {
		line := lines.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		cl := st.pop()
		if cl == nil {
			st.fail(errors.New("rpc: reply line without a command"))
			return
		}
		err := cl.read(line)
		if err != nil {
			cl.err = streamLost(err) // popped, so fail below would miss it
		}
		cl.done <- struct{}{}
		if err != nil {
			st.fail(err)
			return
		}
	}
	err := lines.Err()
	if err == nil {
		err = io.EOF
	}
	st.fail(err)
}

var replyKeys = [...]string{"op", "shard", "seq", "durable", "result"}

// read decodes a reply line into the call. A frame's is
// readBatchResponse's. An acknowledgement — four plain members, the op
// the one sent, and a result readResult reads, if any — is read in place;
// a report, an error envelope or anything unexpected is encoding/json's.
func (cl *call) read(line []byte) error {
	if cl.frame {
		return readBatchResponse(line, &cl.batch)
	}
	var vals [len(replyKeys)][]byte
	if json.Valid(line) && jsonx.Members(line, replyKeys[:], vals[:]) {
		op, ok0 := jsonx.Str(vals[0])
		shard, ok1 := jsonx.Int(vals[1])
		seq, ok2 := jsonx.Int(vals[2])
		durable, ok3 := jsonx.Bool(vals[3])
		if ok0 && ok1 && ok2 && ok3 && string(op) == cl.op && int64(int(shard)) == shard && int64(int(seq)) == seq {
			res, ok := (*ResultSummary)(nil), true
			if vals[4] != nil {
				res, ok = readResult(vals[4])
			}
			if ok {
				cl.reply.SubmitResult = SubmitResult{Op: cl.op, Shard: int(shard), Seq: int(seq), Durable: durable, Result: res}
				return nil
			}
		}
	}
	return json.Unmarshal(line, &cl.reply)
}

// submit sends one command down the stream and waits for its reply: the
// call comes back answered, for the caller to copy from and release.
func (c *Client) submit(ctx context.Context, cmd adept2.Command, mode string) (*call, error) {
	c.cmdMu.Lock()
	op, err := c.out.encode(cmd, mode)
	var cl *call
	if err == nil {
		cl, err = c.send(ctx, op, false)
	}
	c.cmdMu.Unlock()
	if err == nil {
		err = cl.wait(ctx)
	}
	if err != nil {
		return nil, err
	}
	if we := cl.reply.Error; we != nil {
		c.release(cl)
		return nil, we.Err()
	}
	return cl, nil
}

// wait parks until the call is answered, or fails with ErrCanceled when
// ctx ends first; the call then keeps its place in the stream.
func (cl *call) wait(ctx context.Context) error {
	select {
	case <-cl.done:
		return cl.err
	case <-ctx.Done():
		return &adept2.Error{Code: adept2.CodeCanceled, Op: cl.op, Err: ctx.Err()}
	}
}
