package sharded

import (
	"context"
	"fmt"
	"sync/atomic"

	"adept2/internal/durable"
	"adept2/internal/persist"
)

// WAL routes journal appends across the shards of a layout: control
// records (schema deploys, users, evolutions) to shard 0, data records to
// the shard their instance hashes onto, stamped with the current epoch.
// Each shard owns its own journal and its own committer, so
// concurrent appends to different shards serialize, encode, and fsync
// independently — the append path scales past a single fsync queue — and
// every shard fails the same way: retry, wedge, Heal (see
// durable.Committer).
//
// The epoch is the shard-0 sequence number of the newest *durable*
// control record. With more than one shard the facade serializes control
// commands against all data commands (exclusive snapshot barrier), so by
// the time the epoch advances, every concurrently issued data record
// carried the previous epoch — which is exactly the order recovery
// re-establishes. With one shard nothing is stamped: the journal's total
// order needs no epoch.
type WAL struct {
	layout Layout
	shards []walShard
	epoch  atomic.Int64
}

// walShard is one shard's journal and the committer flushing it. Both are
// nil only for shards OpenWAL did not reach before it failed.
type walShard struct {
	j *persist.Journal
	c *durable.Committer
}

// OpenWAL resumes every shard journal of the layout and starts its
// committer. tails carries the per-shard scan results recovery already
// established (persist.TailInfo per shard; the zero value is fine for
// journals that do not exist yet).
func OpenWAL(l Layout, tails []persist.TailInfo, opts durable.CommitterOptions) (*WAL, error) {
	if len(tails) != l.Shards {
		return nil, fmt.Errorf("sharded: open wal: %d tails for %d shards", len(tails), l.Shards)
	}
	w := &WAL{layout: l, shards: make([]walShard, l.Shards)}
	for k := range w.shards {
		j, err := persist.ResumeJournalFS(l.fs(), l.JournalPath(k), tails[k])
		if err != nil {
			w.Close()
			return nil, err
		}
		w.shards[k] = walShard{j: j, c: durable.NewCommitter(j, opts)}
	}
	return w, nil
}

// ShardFor returns the shard an instance's records route to.
func (w *WAL) ShardFor(instID string) int { return ShardOf(instID, len(w.shards)) }

// Epoch returns the current control epoch.
func (w *WAL) Epoch() int { return int(w.epoch.Load()) }

// SetEpoch installs the recovered control epoch (the shard-0 sequence
// number of the last control record recovery applied or restored).
func (w *WAL) SetEpoch(e int) { w.epoch.Store(int64(e)) }

// AppendControl journals a control record on shard 0, waits until it is
// durable, and then advances the epoch. With more than one shard the
// caller must hold the facade's exclusive barrier: no data append may be
// in flight between the engine mutation and the epoch advance, or recovery
// could order a dependent data record ahead of this control record.
func (w *WAL) AppendControl(op string, args any) (int, error) {
	c := w.shards[0].c
	seq, err := c.Append(op, 0, args)
	if err == nil {
		err = c.WaitSeq(context.Background(), seq)
	}
	if err != nil {
		return 0, err
	}
	w.epoch.Store(int64(seq))
	return seq, nil
}

// AppendData stages a data record on the instance's shard, stamped with
// the current epoch, without waking the shard's flusher: the caller Kicks
// the shard once it has staged what it has, and shard and seq identify the
// record for WaitShardSeq.
func (w *WAL) AppendData(instID, op string, args any) (shard, seq int, err error) {
	k := w.ShardFor(instID)
	seq, err = w.shards[k].c.Append(op, w.stamp(k), args)
	return k, seq, err
}

// Kick wakes shard k's flusher to flush what AppendData staged there.
func (w *WAL) Kick(k int) { w.shards[k].c.Kick() }

// stamp is the epoch a data record on shard k carries. Shard-0 data
// records carry none — their position in the control journal already
// orders them totally.
func (w *WAL) stamp(k int) int {
	if k == 0 {
		return 0
	}
	return w.Epoch()
}

// WaitShardSeq blocks until shard k's record seq is durable, the shard's
// committer wedges, or ctx is done. seq may lie beyond the journal head:
// the wait then spans the append and its flush.
func (w *WAL) WaitShardSeq(ctx context.Context, k, seq int) error {
	if err := w.shards[k].c.WaitSeq(ctx, seq); err != nil {
		return fmt.Errorf("sharded: shard %d: %w", k, err)
	}
	return nil
}

// Seqs returns every shard's last journal sequence number.
func (w *WAL) Seqs() []int {
	out := make([]int, len(w.shards))
	for k := range w.shards {
		out[k] = w.shards[k].j.Seq()
	}
	return out
}

// Durable returns every shard's durable watermark: the highest sequence
// number an fsync covers (the committer's flushed mark). Head minus
// watermark is the shard's staged-but-unflushed backlog.
func (w *WAL) Durable() []int {
	out := make([]int, len(w.shards))
	for k := range w.shards {
		out[k] = w.ShardDurable(k)
	}
	return out
}

// ShardDurable returns shard k's durable watermark alone, for callers on
// a per-command path that Durable's slice would charge an allocation.
func (w *WAL) ShardDurable(k int) int { return w.shards[k].c.Flushed() }

// TotalSeq sums the shard head sequence numbers — a monotonic growth
// measure the checkpoint trigger compares across cuts. It runs on every
// journaled command, so it sums in place instead of going through Seqs,
// and a head is read without its journal's lock: a shard whose fsync is
// slow holds up no other shard's commands.
func (w *WAL) TotalSeq() int {
	total := 0
	for k := range w.shards {
		total += w.shards[k].j.Seq()
	}
	return total
}

// Sync makes every previously appended record durable on all shards.
func (w *WAL) Sync() error {
	for k := range w.shards {
		if err := w.shards[k].c.Sync(); err != nil {
			return fmt.Errorf("sharded: shard %d: %w", k, err)
		}
	}
	return nil
}

// Health reports the first wedged shard committer (sticky flush error
// after exhausted retries) without blocking, or nil while all shards are
// healthy.
func (w *WAL) Health() error {
	for k := range w.shards {
		if err := w.shards[k].c.Err(); err != nil {
			return fmt.Errorf("sharded: shard %d committer wedged: %w", k, err)
		}
	}
	return nil
}

// WedgedShards lists the shards whose committers are wedged (empty while
// healthy) — diagnostic detail behind Health's first-error summary.
func (w *WAL) WedgedShards() []int {
	var out []int
	for k := range w.shards {
		if w.shards[k].c.Err() != nil {
			out = append(out, k)
		}
	}
	return out
}

// Retries sums the flush retries absorbed across all shard committers.
func (w *WAL) Retries() int64 {
	var total int64
	for k := range w.shards {
		total += w.shards[k].c.Retries()
	}
	return total
}

// Heal re-opens and tail-repairs every wedged shard's journal in place
// and re-arms its committer (durable.Committer.Heal): records retained in
// the pending buffers are re-flushed, parked waiters resolve, and the
// shard accepts appends again. Healthy shards are untouched. The first
// failing shard aborts the pass (remaining wedged shards keep their
// sticky error, so Health still reports the system degraded).
func (w *WAL) Heal() error {
	for k := range w.shards {
		if c := w.shards[k].c; c.Err() != nil {
			if err := c.Heal(); err != nil {
				return fmt.Errorf("sharded: heal shard %d: %w", k, err)
			}
		}
	}
	return nil
}

// Close drains every shard's committer and closes its journal, returning
// the first error.
func (w *WAL) Close() error {
	var firstErr error
	for k := range w.shards {
		sh := &w.shards[k]
		if sh.j == nil {
			continue // OpenWAL failed before reaching this shard
		}
		if err := sh.c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := sh.j.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
