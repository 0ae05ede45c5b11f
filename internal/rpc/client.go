package rpc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"adept2"
)

// Client is the typed remote face of a System: it mirrors the façade's
// Submit/SubmitAsync/SubmitBatch and read surface over the wire
// protocol. Every Submit, SubmitAsync and SubmitBatch travels down one
// lazily opened command stream (stream.go), so a command costs a line
// each way, and a batch one frame each way, not an HTTP request. Async
// receipts resolve against one shared watermark stream — the client
// tracks every shard's durable watermark locally and a Receipt for
// (shard, seq) resolves the moment watermark[shard] >= seq, so any number
// of in-flight receipts cost one server stream. Safe for concurrent use.
type Client struct {
	base string

	ctx    context.Context // stream lifetimes; Close cancels
	cancel context.CancelFunc
	wg     sync.WaitGroup

	cmdMu sync.Mutex // orders command lines; guards the fields below
	cmds  *cmdStream // nil until the first submit and after a loss
	out   lineBuf    // the line being sent, reused
	free  []*call    // answered calls, for reuse

	mu        sync.Mutex
	wm        []int         // per-shard durable watermarks learned
	shardErr  []error       // sticky per-shard wedge from the stream
	changed   chan struct{} // a parked waiter's wake-up; nil while none waits
	watching  bool
	streamErr error // sticky stream loss; cleared by a successful refresh
}

// Dial connects to a Server's base URL (e.g. "http://127.0.0.1:8137"),
// verifying connectivity and learning the shard layout from the
// watermark snapshot. ctx bounds only the handshake.
func Dial(ctx context.Context, base string) (*Client, error) {
	c := &Client{base: strings.TrimRight(base, "/")}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	var snap WatermarksSnapshot
	if err := c.get(ctx, "/v1/watermarks?once=1", &snap); err != nil {
		c.cancel()
		return nil, err
	}
	if len(snap.Durable) == 0 {
		c.cancel()
		return nil, &adept2.Error{Code: adept2.CodeInternal, Op: "dial",
			Err: fmt.Errorf("rpc: %s answered an empty watermark snapshot", base)}
	}
	c.wm = snap.Durable
	c.shardErr = make([]error, len(snap.Durable))
	return c, nil
}

// Close ends the command stream and the watermark watcher. Submissions
// and receipts still waiting resolve with an error.
func (c *Client) Close() error {
	c.cancel()
	c.wg.Wait()
	return nil
}

// Receipt is the remote durability promise of an async submission: the
// mutation is applied and its journal record staged server-side; Wait
// resolves once the record's (shard, seq) token is covered by the
// streamed durable watermark — the same fsync-coverage contract as the
// in-process Receipt.
type Receipt struct {
	c       *Client
	op      string
	shard   int
	seq     int
	result  *ResultSummary
	durable bool

	mu   sync.Mutex
	done bool
	err  error
}

// Shard and Seq are the receipt token: the journal position the
// command's record received.
func (r *Receipt) Shard() int { return r.shard }
func (r *Receipt) Seq() int   { return r.seq }

// Result returns the command's wire-projected result (valid since
// submission; crash-durable only once Wait resolves).
func (r *Receipt) Result() *ResultSummary { return r.result }

// Wait blocks until the record is durable on the server, the remote
// durability pipeline wedges (ErrWedged), the stream is lost without a
// recovery path, or ctx is done (ErrCanceled — the record stays
// submitted, a later Wait can still resolve). Idempotent, safe for
// concurrent use.
func (r *Receipt) Wait(ctx context.Context) error {
	r.mu.Lock()
	if r.done {
		err := r.err
		r.mu.Unlock()
		return err
	}
	durable := r.durable
	r.mu.Unlock()
	var err error
	if !durable {
		err = r.c.awaitDurable(ctx, r.shard, r.seq, r.op)
	}
	if err != nil {
		var ae *adept2.Error
		if errors.As(err, &ae) && ae.Code == adept2.CodeCanceled {
			// Cancellation abandons only this wait, not the outcome.
			return err
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.done {
		r.done = true
		r.err = err
	}
	return r.err
}

// awaitDurable parks until the shard's learned watermark covers seq,
// lazily starting the shared watcher. On stream loss it refreshes the
// snapshot once (which both resolves already-durable receipts — e.g.
// after a server drain emitted finals — and restarts the watcher when
// the server is still up); a second loss fails the wait.
func (c *Client) awaitDurable(ctx context.Context, shard, seq int, op string) error {
	refreshed := false
	for {
		c.mu.Lock()
		if shard < 0 || shard >= len(c.wm) {
			c.mu.Unlock()
			return &adept2.Error{Code: adept2.CodeInvalid, Op: op,
				Err: fmt.Errorf("rpc: shard %d out of range [0,%d)", shard, len(c.wm))}
		}
		if c.wm[shard] >= seq {
			c.mu.Unlock()
			return nil
		}
		if serr := c.shardErr[shard]; serr != nil {
			c.mu.Unlock()
			return serr
		}
		streamErr := c.streamErr
		if streamErr == nil {
			c.ensureWatcherLocked()
		}
		if c.changed == nil {
			c.changed = make(chan struct{})
		}
		ch := c.changed
		c.mu.Unlock()

		if streamErr != nil {
			if refreshed {
				return &adept2.Error{Code: adept2.CodeWedged, Op: op, Applied: true,
					Err: fmt.Errorf("rpc: watermark stream lost: %w", streamErr)}
			}
			refreshed = true
			if err := c.refreshWatermarks(ctx); err != nil {
				return &adept2.Error{Code: adept2.CodeWedged, Op: op, Applied: true,
					Err: fmt.Errorf("rpc: watermark stream lost (%v); refresh: %w", streamErr, err)}
			}
			c.mu.Lock()
			if c.streamErr == streamErr {
				c.streamErr = nil // server reachable again: let the watcher restart
			}
			c.mu.Unlock()
			continue
		}
		select {
		case <-ctx.Done():
			return &adept2.Error{Code: adept2.CodeCanceled, Op: op, Applied: true, Err: ctx.Err()}
		case <-ch:
		}
	}
}

// refreshWatermarks folds one snapshot fetch into the learned
// watermarks.
func (c *Client) refreshWatermarks(ctx context.Context) error {
	var snap WatermarksSnapshot
	if err := c.get(ctx, "/v1/watermarks?once=1", &snap); err != nil {
		return err
	}
	c.mu.Lock()
	for k, wm := range snap.Durable {
		if k < len(c.wm) && wm > c.wm[k] {
			c.wm[k] = wm
		}
	}
	c.bumpLocked()
	c.mu.Unlock()
	return nil
}

// Watch eagerly connects the shared watermark stream (normally the
// first parked Wait starts it lazily). Useful before a window where
// the server might drain: a connected stream is guaranteed to observe
// the drain's final watermarks.
func (c *Client) Watch() {
	c.mu.Lock()
	c.ensureWatcherLocked()
	c.mu.Unlock()
}

// ensureWatcherLocked starts the shared stream watcher if it is not
// running. Callers hold c.mu.
func (c *Client) ensureWatcherLocked() {
	if c.watching {
		return
	}
	c.watching = true
	c.wg.Add(1)
	go c.watch()
}

// watch consumes the server's watermark stream, folding every event
// into the learned watermarks and waking waiters. Stream loss (EOF on
// drain, connection failure) is recorded sticky; waiters fall back to
// one snapshot refresh.
func (c *Client) watch() {
	defer c.wg.Done()
	err := func() error {
		req, err := http.NewRequestWithContext(c.ctx, http.MethodGet, c.base+"/v1/watermarks", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return responseError(resp)
		}
		dec := json.NewDecoder(resp.Body)
		var ev WatermarkEvent // one a stream: Decode makes it escape
		for {
			ev = WatermarkEvent{}
			if err := dec.Decode(&ev); err != nil {
				return err
			}
			c.applyEvent(ev)
		}
	}()
	c.mu.Lock()
	c.watching = false
	c.streamErr = err
	if c.streamErr == nil {
		c.streamErr = io.EOF
	}
	c.bumpLocked()
	c.mu.Unlock()
}

func (c *Client) applyEvent(ev WatermarkEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ev.Shard < 0 || ev.Shard >= len(c.wm) {
		return
	}
	if ev.Err != "" {
		code := adept2.Code(ev.Code)
		if code == "" {
			code = adept2.CodeWedged
		}
		c.shardErr[ev.Shard] = &adept2.Error{Code: code, Op: "wait_durable",
			Applied: true, Err: errors.New(ev.Err)}
	} else if ev.Durable > c.wm[ev.Shard] {
		c.wm[ev.Shard] = ev.Durable
	}
	c.bumpLocked()
}

// bumpLocked wakes every parked waiter; the next one to park makes the
// next channel. Callers hold c.mu.
func (c *Client) bumpLocked() {
	if c.changed != nil {
		close(c.changed)
		c.changed = nil
	}
}

// Submit sends one command and blocks until its record is durable
// server-side, mirroring System.Submit across the hop. When ctx ends
// first Submit returns ErrCanceled and the command may still have been
// applied: its line had left, and the reply is discarded when it comes.
func (c *Client) Submit(ctx context.Context, cmd adept2.Command) (*SubmitResult, error) {
	cl, err := c.submit(ctx, cmd, "sync")
	if err != nil {
		return nil, err
	}
	res := cl.reply.SubmitResult
	c.release(cl)
	return &res, nil
}

// SubmitAsync sends one command and returns as soon as the server
// applied it and staged its record, handing back a Receipt that
// resolves at fsync coverage — the remote form of the ~10-22x
// pipelining win of in-process SubmitAsync.
func (c *Client) SubmitAsync(ctx context.Context, cmd adept2.Command) (*Receipt, error) {
	cl, err := c.submit(ctx, cmd, "async")
	if err != nil {
		return nil, err
	}
	res := &cl.reply.SubmitResult
	r := &Receipt{c: c, op: res.Op, shard: res.Shard, seq: res.Seq, result: res.Result, durable: res.Durable}
	c.release(cl)
	return r, nil
}

// SubmitBatch sends a run of commands as one frame down the command
// stream; the server applies it through System.SubmitBatch, durable when
// SubmitBatch returns. On error the results hold the applied (and
// durable) prefix and the error carries the server's taxonomy envelope,
// mirroring System.SubmitBatch. When ctx ends first SubmitBatch returns
// ErrCanceled and the frame may still apply, as with Submit.
func (c *Client) SubmitBatch(ctx context.Context, cmds []adept2.Command) ([]*ResultSummary, error) {
	c.cmdMu.Lock()
	err := c.out.encodeFrame(cmds)
	var cl *call
	if err == nil {
		cl, err = c.send(ctx, "batch", true)
	}
	c.cmdMu.Unlock()
	if err == nil {
		err = cl.wait(ctx)
	}
	if err != nil {
		return nil, err
	}
	resp := cl.batch
	c.release(cl)
	if resp.Error != nil {
		return resp.Results, resp.Error.Err()
	}
	return resp.Results, nil
}

// Instances fetches one cursor page of instances (empty cursor starts
// from the beginning; next == "" means exhausted).
func (c *Client) Instances(ctx context.Context, cursor string, limit int) (*InstancePage, error) {
	var page InstancePage
	err := c.get(ctx, "/v1/instances?"+pageQuery(cursor, limit).Encode(), &page)
	return &page, err
}

// Instance fetches one instance's detail (ErrNotFound for unknown
// IDs, via the rehydrated envelope).
func (c *Client) Instance(ctx context.Context, id string) (*InstanceDetail, error) {
	var d InstanceDetail
	err := c.get(ctx, "/v1/instances/"+url.PathEscape(id), &d)
	if err != nil {
		return nil, err
	}
	return &d, nil
}

// WorkItems fetches one cursor page of a user's worklist.
func (c *Client) WorkItems(ctx context.Context, user, cursor string, limit int) (*WorkItemPage, error) {
	q := pageQuery(cursor, limit)
	q.Set("user", user)
	var page WorkItemPage
	err := c.get(ctx, "/v1/workitems?"+q.Encode(), &page)
	return &page, err
}

// OpenExceptions fetches the open exception set.
func (c *Client) OpenExceptions(ctx context.Context) ([]ExceptionSummary, error) {
	var list ExceptionList
	if err := c.get(ctx, "/v1/exceptions", &list); err != nil {
		return nil, err
	}
	return list.Exceptions, nil
}

// Health fetches the health summary. An unhealthy or draining server
// answers 503 but the summary still arrives alongside the error.
func (c *Client) Health(ctx context.Context) (*HealthSummary, error) {
	var sum HealthSummary
	err := c.get(ctx, "/healthz", &sum)
	if sum.Shards != 0 {
		return &sum, err
	}
	return nil, err
}

// Watermarks fetches a one-shot durable-watermark snapshot.
func (c *Client) Watermarks(ctx context.Context) ([]int, error) {
	var snap WatermarksSnapshot
	if err := c.get(ctx, "/v1/watermarks?once=1", &snap); err != nil {
		return nil, err
	}
	return snap.Durable, nil
}

func pageQuery(cursor string, limit int) url.Values {
	q := url.Values{}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	return q
}

// get runs one JSON round-trip, rehydrating error envelopes. The body of
// an error status is decoded into out as well, for the callers that want
// it (healthz).
func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		_ = json.Unmarshal(raw, out)
		return wireErrFromBody(raw, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// responseError rehydrates a non-2xx response into the taxonomy error
// the server classified, falling back to the status-derived code when
// the envelope is missing.
func responseError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	return wireErrFromBody(raw, resp.StatusCode)
}

func wireErrFromBody(raw []byte, status int) error {
	var body errorBody
	if json.Unmarshal(raw, &body) == nil && body.Error != nil && body.Error.Code != "" {
		return body.Error.Err()
	}
	return &adept2.Error{Code: adept2.CodeForHTTPStatus(status), Op: "rpc",
		Err: fmt.Errorf("rpc: HTTP %d: %s", status, strings.TrimSpace(string(raw)))}
}
