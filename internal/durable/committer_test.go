package durable

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adept2/internal/persist"
	"adept2/internal/vfs"
)

// appendDurable stages one record, wakes the flusher and waits until the
// record is durable.
func appendDurable(c *Committer, op string, args any) (int, error) {
	seq, err := c.Append(op, 0, args)
	if err != nil {
		return 0, err
	}
	c.Kick()
	return seq, c.WaitSeq(context.Background(), seq)
}

func TestCommitterConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	j, err := persist.OpenJournalBufferedFS(vfs.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCommitter(j, CommitterOptions{})
	const writers, each = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers*each)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := appendDurable(c, "op", map[string]int{"w": w, "i": i}); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := persist.LoadJournalSuffixFS(vfs.OS(), path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != writers*each {
		t.Fatalf("journal holds %d records, want %d", len(recs), writers*each)
	}
	for i, rec := range recs {
		if rec.Seq != i+1 {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
	}
}

// TestCommitterDurableOnReturn crashes (abandons the committer without
// Close) right after a record's wait returned: the record must already be
// on disk.
func TestCommitterDurableOnReturn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	j, err := persist.OpenJournalBufferedFS(vfs.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCommitter(j, CommitterOptions{})
	seq, err := appendDurable(c, "op", 42)
	if err != nil || seq != 1 {
		t.Fatalf("seq=%d err=%v", seq, err)
	}
	// No Close, no Flush: simulated crash. The journal file must already
	// hold the record because WaitSeq only returns after the group fsync.
	recs, _, err := persist.LoadJournalSuffixFS(vfs.OS(), path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("record not durable when its wait returned: %+v", recs)
	}
	c.Close()
	j.Close()
}

func TestCommitterErrorBroadcast(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	j, err := persist.OpenJournalBufferedFS(vfs.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCommitter(j, CommitterOptions{})
	if _, err := appendDurable(c, "op", 1); err != nil {
		t.Fatal(err)
	}
	// Close the backing file out from under the committer: the next flush
	// must fail, the failure must reach the waiting appender, and the
	// committer must stay sticky-broken.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := appendDurable(c, "op", 2); err == nil {
		t.Fatal("append after backing-file failure must error")
	}
	if _, err := appendDurable(c, "op", 3); err == nil {
		t.Fatal("committer must stay broken after a flush failure")
	}
	if err := c.Close(); err == nil {
		t.Fatal("Close must report the sticky error")
	}
}

func TestCommitterSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	j, err := persist.OpenJournalBufferedFS(vfs.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCommitter(j, CommitterOptions{})
	defer j.Close()
	defer c.Close()
	if err := c.Sync(); err != nil { // nothing pending
		t.Fatal(err)
	}
	if _, err := appendDurable(c, "op", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := j.Seq(); got != 1 {
		t.Fatalf("seq = %d", got)
	}
}

// TestCommitterNoLostWakeStress hammers the append/flush handoff: an
// append landing while a flush is in flight must never be forgotten (the
// regression was a pending counter wiped by post-flush bookkeeping,
// stranding its waiter forever).
func TestCommitterNoLostWakeStress(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	j, err := persist.OpenJournalBufferedFS(vfs.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	c := NewCommitter(j, CommitterOptions{})
	defer c.Close()

	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			for i := 0; i < 2000; i++ {
				if _, err := appendDurable(c, "op", i); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	timeout := time.After(60 * time.Second)
	for w := 0; w < 8; w++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			t.Fatal("append stranded: lost wake in the group-commit handoff")
		}
	}
}

// failingCommitter opens a committer over an in-memory journal whose
// fsyncs fail while the returned flag is set.
func failingCommitter(t *testing.T, opts CommitterOptions) (*Committer, *atomic.Bool) {
	t.Helper()
	failing := new(atomic.Bool)
	j, err := persist.OpenJournalBufferedFS(vfs.NewFaultFS(vfs.NewMemFS(), func(_ int64, op vfs.OpRef) vfs.Decision {
		if op.Kind == vfs.OpSync && failing.Load() {
			return vfs.Decision{Err: vfs.ErrInjected}
		}
		return vfs.Decision{}
	}), "wal.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCommitter(j, opts)
	t.Cleanup(func() {
		failing.Store(false)
		c.Close()
		j.Close()
	})
	return c, failing
}

// parkWaits parks one WaitSeq on each of the next len(ctxs) sequence
// numbers, none of which is staged yet, and returns once all are parked:
// no flush can answer them before stage runs. ctxs[i] is the i-th wait's
// context; its result arrives on results[i].
func parkWaits(t *testing.T, c *Committer, ctxs []context.Context) (seqs []int, results []chan error) {
	t.Helper()
	head := c.j.Seq()
	seqs, results = make([]int, len(ctxs)), make([]chan error, len(ctxs))
	for i, ctx := range ctxs {
		seqs[i], results[i] = head+1+i, make(chan error, 1)
		go func(ctx context.Context, seq int, out chan<- error) { out <- c.WaitSeq(ctx, seq) }(ctx, seqs[i], results[i])
	}
	for parked := 0; parked < len(ctxs); runtime.Gosched() {
		c.mu.Lock()
		parked = len(c.waiters)
		c.mu.Unlock()
	}
	return seqs, results
}

// stage appends n records to the journal and wakes the flusher. It goes
// around Append, which a wedged committer refuses: the waits parked on
// these records must meet the flush that wedges it.
func stage(t *testing.T, c *Committer, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := c.j.AppendRecord("op", 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	c.Kick()
}

// TestWaitSeqRecyclingSurvivesCancellation: waiter channels are recycled,
// and half of every round's waits are cancelled before their records are
// staged. A cancelled wait's channel must not come back — the flusher
// still sends that record's outcome on it — so no later wait may ever find
// a stale outcome in its channel: no wait returns before its record is
// staged, and every wait that returns nil is covered by the watermark at
// that moment.
func TestWaitSeqRecyclingSurvivesCancellation(t *testing.T) {
	c, _ := failingCommitter(t, CommitterOptions{})
	const rounds, waits = 1000, 8
	for round := 0; round < rounds; round++ {
		ctxs := make([]context.Context, waits)
		cancels := make([]context.CancelFunc, waits)
		for i := range ctxs {
			ctxs[i], cancels[i] = context.WithCancel(context.Background())
			defer cancels[i]()
		}
		seqs, results := parkWaits(t, c, ctxs)
		for i := 0; i < waits; i += 2 {
			cancels[i]()
			if err := <-results[i]; !errors.Is(err, context.Canceled) {
				t.Fatalf("round %d: cancelled wait on seq %d returned %v", round, seqs[i], err)
			}
		}
		// Nothing staged yet: a survivor that already returned was handed
		// another record's outcome.
		for i := 1; i < waits; i += 2 {
			select {
			case err := <-results[i]:
				t.Fatalf("round %d: wait on seq %d returned %v before its record was staged", round, seqs[i], err)
			default:
			}
		}
		stage(t, c, waits)
		for i := 1; i < waits; i += 2 {
			if err := <-results[i]; err != nil {
				t.Fatalf("round %d: wait on seq %d: %v", round, seqs[i], err)
			}
			if got := c.Flushed(); got < seqs[i] {
				t.Fatalf("round %d: wait on seq %d returned nil at watermark %d", round, seqs[i], got)
			}
		}
	}
	// Survivors recycle, cancelled waits leak: at most one round's
	// survivors are ever free at once.
	c.mu.Lock()
	free := len(c.free)
	c.mu.Unlock()
	if free == 0 || free > waits/2 {
		t.Fatalf("%d free waiter channels after %d rounds, want 1..%d", free, rounds, waits/2)
	}
}

// TestWaitSeqRecycledChannelsAfterHeal: a wedge hands every parked waiter
// the sticky error; after Heal, fresh waits — on those same channels —
// must see their own flush succeed, not a stale error.
func TestWaitSeqRecycledChannelsAfterHeal(t *testing.T) {
	c, failing := failingCommitter(t, CommitterOptions{})
	const waits = 8
	ctxs := make([]context.Context, waits)
	for i := range ctxs {
		ctxs[i] = context.Background()
	}

	_, results := parkWaits(t, c, ctxs)
	failing.Store(true)
	stage(t, c, waits)
	for i := range results {
		if err := <-results[i]; !errors.Is(err, vfs.ErrInjected) {
			t.Fatalf("parked wait %d: %v, want the sticky flush error", i, err)
		}
	}
	if c.Err() == nil {
		t.Fatal("committer must be wedged")
	}
	c.mu.Lock()
	free := len(c.free)
	c.mu.Unlock()
	if free != waits {
		t.Fatalf("%d free waiter channels after the wedge, want %d", free, waits)
	}

	failing.Store(false)
	if err := c.Heal(); err != nil {
		t.Fatal(err)
	}
	seqs, results := parkWaits(t, c, ctxs)
	c.mu.Lock()
	free = len(c.free)
	c.mu.Unlock()
	if free != 0 {
		t.Fatalf("%d waiter channels still free with %d waits parked: the waits did not reuse them", free, waits)
	}
	stage(t, c, waits)
	for i := range results {
		if err := <-results[i]; err != nil {
			t.Fatalf("wait on seq %d after Heal: %v", seqs[i], err)
		}
		if got := c.Flushed(); got < seqs[i] {
			t.Fatalf("wait on seq %d returned nil at watermark %d", seqs[i], got)
		}
	}
}
