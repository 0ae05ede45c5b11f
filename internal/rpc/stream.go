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
)

// cmdStream is the client's end of one POST /v1/commands exchange in its
// NDJSON form: command lines go down the request body, reply lines come
// back up the response body in the same order, so the oldest waiting
// call owns the next reply and nothing is correlated by id.
type cmdStream struct {
	cancel context.CancelFunc // ends the HTTP exchange
	body   *io.PipeWriter     // request body, one line per command

	// The line being built, reused across submits under Client.cmdMu.
	req commandRequest
	buf bytes.Buffer
	enc *json.Encoder // onto buf

	mu    sync.Mutex
	calls []*call // awaiting replies, oldest at head
	head  int
	lost  error // why the stream ended; set once
}

// call is one submission parked on its reply. done is buffered so the
// reply reader never blocks on a call whose submitter gave up.
type call struct {
	done  chan struct{}
	reply *replyLine
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
	st.enc = json.NewEncoder(&st.buf)
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

// send writes one command line down the stream, dialing it if there is
// none, and returns the call that will receive its reply.
func (c *Client) send(ctx context.Context, op string, args json.RawMessage, mode string) (*call, error) {
	c.cmdMu.Lock()
	defer c.cmdMu.Unlock()
	st, cl := c.cmds, &call{done: make(chan struct{}, 1)}
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
	st.req = commandRequest{Envelope: Envelope{Op: op, Args: args}, Mode: mode}
	st.buf.Reset()
	err := st.enc.Encode(&st.req)
	if err == nil {
		_, err = st.body.Write(st.buf.Bytes())
	}
	if err != nil {
		st.fail(err) // cl is queued: it fails with the rest
	}
	return cl, nil
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
	dec := json.NewDecoder(body)
	for {
		rl := new(replyLine)
		err := dec.Decode(rl)
		var cl *call
		if err == nil {
			if cl = st.pop(); cl == nil {
				err = errors.New("rpc: reply line without a command")
			}
		}
		if err != nil {
			st.fail(err)
			return
		}
		cl.reply = rl
		cl.done <- struct{}{}
	}
}

// submit sends one command down the stream and waits for its reply.
func (c *Client) submit(ctx context.Context, cmd adept2.Command, mode string) (*SubmitResult, error) {
	op, args, err := adept2.EncodeCommand(cmd)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, &adept2.Error{Code: adept2.CodeCanceled, Op: op, Err: err}
	}
	cl, err := c.send(ctx, op, args, mode)
	if err != nil {
		return nil, err
	}
	select {
	case <-cl.done:
	case <-ctx.Done():
		return nil, &adept2.Error{Code: adept2.CodeCanceled, Op: op, Err: ctx.Err()}
	}
	if cl.err != nil {
		return nil, cl.err
	}
	if cl.reply.Error != nil {
		return nil, cl.reply.Error.Err()
	}
	return &cl.reply.SubmitResult, nil
}
