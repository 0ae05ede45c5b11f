package durable

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adept2/internal/obs"
	"adept2/internal/persist"
)

// Flush retries: a failed flush is retried up to retryMax times, the
// backoff doubling from retryBase to at most retryCap, before the
// committer wedges. Each retry re-verifies the journal tail and rewrites
// the batch from the pending buffer (persist.Journal.Flush), so a
// transient I/O error — a busy device, a momentary ENOSPC — never wedges
// the committer.
const (
	retryMax  = 4
	retryBase = time.Millisecond
	retryCap  = 50 * time.Millisecond
)

// CommitterOptions names a committer's telemetry. Batching has no knob:
// the in-flight fsync is the gather window (see the package
// documentation).
type CommitterOptions struct {
	// Metrics, when set, receives the committer's flush telemetry (fsync
	// latency, batch occupancy, wedge/heal transitions; retries are
	// counted by the committer itself, Retries, whatever Metrics is). All
	// recording methods are nil-safe, so the zero value costs one branch.
	// Sharded WALs share one CommitterMetrics across their per-shard
	// committers — the families aggregate.
	Metrics *obs.CommitterMetrics
}

// Committer groups concurrent journal appends into shared flushes: each
// Append writes its record into the journal's user-space buffer, and a
// WaitSeq on it returns once one buffered write + one fsync covering it
// completed (see the package documentation for the batching and error
// semantics). It is safe for concurrent use.
type Committer struct {
	j    *persist.Journal
	opts CommitterOptions

	mu      sync.Mutex
	flushed int   // highest seq covered by a successful flush
	err     error // sticky: set on the first flush failure
	closed  bool
	stopped bool // flusher goroutine exited; stragglers flush inline

	// waiters are the parked WaitSeq calls, each on a channel so that a
	// context can cancel the wait; resolved whenever flushed advances or
	// the sticky error is set.
	waiters []waiter
	// free holds waiter channels whose value was received: each is empty
	// and no longer referenced by waiters, so the next WaitSeq reuses it
	// instead of making one per wait (see the package documentation for
	// why a cancelled wait's channel never comes back).
	free []chan error

	wake chan struct{}
	done chan struct{}

	retries atomic.Int64 // flush attempts beyond the first, across all batches
}

// waiter is one parked WaitSeq call.
type waiter struct {
	seq int
	ch  chan error // buffered(1); receives nil or the sticky error
}

// resolveWaitersLocked completes every parked WaitSeq call the current
// flushed/err state answers. Callers hold c.mu.
func (c *Committer) resolveWaitersLocked() {
	if len(c.waiters) == 0 {
		return
	}
	keep := c.waiters[:0]
	for _, w := range c.waiters {
		switch {
		case c.err != nil:
			w.ch <- c.err
		case c.flushed >= w.seq:
			w.ch <- nil
		default:
			keep = append(keep, w)
		}
	}
	c.waiters = keep
}

// NewCommitter starts a group-commit pipeline over the journal. The
// records the journal was opened with are its durable floor, so the
// watermark starts at its head: nothing is staged yet.
func NewCommitter(j *persist.Journal, opts CommitterOptions) *Committer {
	c := &Committer{
		j:       j,
		opts:    opts,
		flushed: j.Seq(),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	go c.run()
	return c
}

// Append stages one record in the journal without waking the flusher and
// returns its sequence number: the caller stages what it has, wakes the
// flusher with Kick, and awaits the number with WaitSeq when it needs the
// durability guarantee. epoch is the record's epoch reference (sharded
// data journals tag commands with the control-log position they were
// issued under; see internal/durable/sharded). A wedged or closed
// committer refuses the record, and so do args that do not encode; flush
// failures surface from WaitSeq and Err.
func (c *Committer) Append(op string, epoch int, args any) (int, error) {
	c.mu.Lock()
	err := c.err
	if err == nil && c.closed {
		err = fmt.Errorf("durable: committer closed")
	}
	c.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return c.j.AppendRecord(op, epoch, args)
}

// Kick wakes the flusher. The caller's journal appends happened before the
// wake token lands (publish-then-wake), so the flusher can never go idle
// with uncovered work.
func (c *Committer) Kick() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// WaitSeq blocks until seq is covered by a successful flush, the
// committer wedges (returns the sticky error), or ctx is done (returns
// ctx.Err(); the record stays queued and a later WaitSeq can still await
// it).
func (c *Committer) WaitSeq(ctx context.Context, seq int) error {
	c.mu.Lock()
	if c.flushed >= seq { // covered before any later wedge: durable
		c.mu.Unlock()
		return nil
	}
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	if c.stopped {
		c.mu.Unlock()
		return c.settle(seq)
	}
	w := waiter{seq: seq}
	if n := len(c.free); n > 0 {
		w.ch, c.free = c.free[n-1], c.free[:n-1]
	} else {
		w.ch = make(chan error, 1)
	}
	c.waiters = append(c.waiters, w)
	c.mu.Unlock()
	c.Kick()
	select {
	case err := <-w.ch:
		c.mu.Lock()
		c.free = append(c.free, w.ch)
		c.mu.Unlock()
		return err
	case <-ctx.Done():
		// Abandoned, not recycled: the waiter is still parked and the
		// flusher will send its outcome on w.ch.
		return ctx.Err()
	}
}

// settle is a wait after the flusher has stopped: nobody is left to
// resolve a parked channel, so a straggler that slipped past the closed
// check — seq is covered by no flush and no sticky error is set — flushes
// inline.
func (c *Committer) settle(seq int) error {
	ferr := c.flushWithRetry()
	c.mu.Lock()
	defer c.mu.Unlock()
	if ferr != nil {
		c.wedgeLocked(ferr)
		c.resolveWaitersLocked()
		return c.err
	}
	if seq > c.flushed {
		c.flushed = seq
	}
	c.resolveWaitersLocked()
	return nil
}

// Err returns the sticky flush error without blocking: nil while the
// committer is healthy, the first exhausted-retry failure once it is
// wedged. Health surfacing (System.Health) polls this instead of waiting
// for the next append to observe the failure.
func (c *Committer) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Retries returns how many flush retries (attempts beyond each batch's
// first) have happened over the committer's lifetime — a nonzero count
// with a nil Err means transient I/O errors were absorbed.
func (c *Committer) Retries() int64 { return c.retries.Load() }

// Flushed returns the highest sequence number covered by a successful
// flush — the durable watermark. Seq() - Flushed() is the staged-but-
// unflushed backlog the stats plane reports as append depth.
func (c *Committer) Flushed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushed
}

// flushWithRetry runs Journal.Flush with bounded exponential backoff.
// The journal keeps failed batches in its pending buffer and repairs its
// physical tail before each retry, so every attempt is a complete,
// self-contained redo. Only the final attempt's error escapes (and then
// wedges the committer).
func (c *Committer) flushWithRetry() error {
	err := c.timedFlush()
	backoff := retryBase
	for attempt := 0; err != nil && attempt < retryMax; attempt++ {
		c.retries.Add(1)
		time.Sleep(backoff)
		if backoff *= 2; backoff > retryCap {
			backoff = retryCap
		}
		err = c.timedFlush()
	}
	return err
}

// timedFlush is one flush attempt with its duration (write + fsync)
// observed into the fsync-latency histogram.
func (c *Committer) timedFlush() error {
	m := c.opts.Metrics
	if m == nil {
		return c.j.Flush()
	}
	start := time.Now()
	err := c.j.Flush()
	m.ObserveFsync(time.Since(start).Nanoseconds())
	return err
}

// wedgeLocked installs the sticky flush error (first one wins) and counts
// the wedge transition. Callers hold c.mu.
func (c *Committer) wedgeLocked(ferr error) {
	if c.err != nil {
		return
	}
	c.err = fmt.Errorf("durable: group commit: %w", ferr)
	c.opts.Metrics.WedgeInc()
}

// Heal clears a wedged committer after the fault is gone: the journal
// re-opens its file, verifies and repairs the physical tail, and
// re-flushes the records retained in its pending buffer (so no appended
// record is ever dropped by a wedge/heal cycle). On success the sticky
// error is cleared, parked waiters whose records are now durable resolve,
// and the flusher resumes. The sequence read happens before the heal so
// concurrent post-heal appends are never marked flushed early.
func (c *Committer) Heal() error {
	target := c.j.Seq()
	if err := c.j.Heal(); err != nil {
		return err
	}
	c.mu.Lock()
	if c.err != nil {
		c.opts.Metrics.HealInc()
	}
	c.err = nil
	if target > c.flushed {
		c.flushed = target
	}
	c.resolveWaitersLocked()
	c.mu.Unlock()
	c.Kick()
	return nil
}

// Sync blocks until everything appended so far is durable.
func (c *Committer) Sync() error {
	return c.WaitSeq(context.Background(), c.j.Seq())
}

// Close flushes any remaining appends, stops the flusher, and leaves the
// journal open (the owner closes it).
func (c *Committer) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return c.err
	}
	c.closed = true
	c.mu.Unlock()
	c.Kick()
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// run is the flusher goroutine. Each inner iteration turns every append
// accumulated so far into one buffered write + one fsync and wakes the
// covered callers; appends arriving during the fsync form the next batch
// (natural batching — the fsync latency is the gather window).
func (c *Committer) run() {
	defer func() {
		// A wait that arrives from here on sees stopped and flushes inline
		// (settle). The waits already parked cannot, so any still
		// uncovered (an append slipping past the exit decision) get one
		// final inline flush here before their channels resolve.
		c.mu.Lock()
		c.stopped = true
		uncovered := false
		for _, w := range c.waiters {
			if c.err == nil && c.flushed < w.seq {
				uncovered = true
			}
		}
		c.mu.Unlock()
		if uncovered {
			target := c.j.Seq()
			ferr := c.flushWithRetry()
			c.mu.Lock()
			if ferr != nil {
				c.wedgeLocked(ferr)
			} else if target > c.flushed {
				c.flushed = target
			}
			c.mu.Unlock()
		}
		c.mu.Lock()
		c.resolveWaitersLocked()
		c.mu.Unlock()
		close(c.done)
	}()
	for {
		<-c.wake
		for {
			// Yield once so waiters the previous flush resolved (or freshly
			// unblocked callers) can enqueue before this batch is cut —
			// essential on few-core hosts where the flusher would otherwise
			// outrun every producer and degrade to batch size 1.
			runtime.Gosched()
			c.mu.Lock()
			flushed, closed, broken := c.flushed, c.closed, c.err != nil
			c.mu.Unlock()
			// The journal tail itself is the work signal: comparing it
			// against flushed can never lose an append the way a separate
			// pending counter could (an append landing mid-flush must not
			// be wiped by the post-flush bookkeeping).
			target := c.j.Seq()
			if target <= flushed || broken {
				if closed {
					return
				}
				break // idle (or sticky-broken): wait for the next wake
			}
			// Everything appended up to target is covered by this flush;
			// transient failures are retried with backoff before wedging.
			err := c.flushWithRetry()

			c.mu.Lock()
			if err != nil {
				// Sticky failure after exhausting the retry budget: the
				// committer wedges. Waiters on this and all later batches
				// observe the error until Heal clears it.
				c.wedgeLocked(err)
			} else if target > c.flushed {
				c.flushed = target
				c.opts.Metrics.ObserveBatch(int64(target - flushed))
			}
			c.resolveWaitersLocked()
			c.mu.Unlock()
		}
	}
}
