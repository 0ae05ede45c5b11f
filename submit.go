package adept2

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"adept2/internal/durable/sharded"
	"adept2/internal/obs"
)

// Receipt is the durability promise of an asynchronously submitted
// command: the engine mutation already happened and the journal record is
// staged when SubmitAsync returns; Wait resolves once the record is
// covered by an fsync (the shard's committer batches the flushes, so
// pipelining submitters share them). Receipts of commands that were
// durable on return (control commands, systems without a journal)
// resolve immediately.
type Receipt struct {
	op     string
	inst   string
	seq    int
	shard  int
	result any
	wal    *sharded.WAL // awaits (shard, seq); nil = durable already

	// span is this command's sampled trace (nil for unsampled ones):
	// built on the submit path, published into ring once the first Wait
	// resolves the durability outcome. nowNanos is the system clock.
	span     *obs.Span
	ring     *obs.TraceRing
	nowNanos func() int64

	mu   sync.Mutex
	done bool
	err  error
}

// Result returns the command's result (e.g. the *Instance of a
// CreateInstance, the *MigrationReport of an Evolve; nil for most
// commands). The result is valid as soon as SubmitAsync returned — it
// reflects the applied engine state — but it is not crash-durable until
// Wait resolves.
func (r *Receipt) Result() any { return r.result }

// Seq returns the shard-local journal sequence number the command's
// record received (0 without a journal).
func (r *Receipt) Seq() int { return r.seq }

// Shard returns the shard the command's record routed to (0 is the
// control shard, and the only one in a one-shard layout). Together with
// Seq it identifies the record's durable position.
func (r *Receipt) Shard() int { return r.shard }

// Wait blocks until the record is durable, the durability pipeline
// wedges (ErrWedged), or ctx is done (ErrCanceled; the record stays
// queued, and a later Wait can still await it). Wait is idempotent and
// safe for concurrent use.
func (r *Receipt) Wait(ctx context.Context) error {
	r.mu.Lock()
	if r.done {
		err := r.err
		r.mu.Unlock()
		return err
	}
	r.mu.Unlock()
	resolved, err := r.await(ctx)
	if !resolved {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.done {
		r.resolve(err)
	}
	return r.err
}

// await blocks for the record's durability outcome: nil or an ErrWedged
// error, resolved. On cancellation it returns the ErrCanceled error
// unresolved — that abandons only this wait, not the outcome.
func (r *Receipt) await(ctx context.Context) (resolved bool, err error) {
	if r.wal != nil {
		err = r.wal.WaitShardSeq(ctx, r.shard, r.seq)
	}
	switch {
	case err == nil:
		return true, nil
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return false, &Error{Code: CodeCanceled, Op: r.op, Instance: r.inst, Applied: true, Result: r.result, Err: err}
	}
	return true, &Error{Code: CodeWedged, Op: r.op, Instance: r.inst, Applied: true, Result: r.result, Err: err}
}

// resolve records the durability outcome, stamps it onto a sampled span
// and publishes that (once, on the done transition). Callers hold r.mu or
// own r alone.
func (r *Receipt) resolve(err error) {
	r.done, r.err = true, err
	if r.span == nil {
		return
	}
	if err == nil {
		r.span.DurableNanos = r.nowNanos()
	} else {
		r.span.Err = string(codeOf(err))
	}
	r.ring.Publish(*r.span)
	r.span = nil
}

// Submit applies one command and blocks until its journal record is
// durable: when Submit returns nil, the command survives a crash. The
// result is the command's typed result (see Receipt.Result). ctx bounds
// the durability wait — on cancellation the command may still have been
// applied and journaled (ErrCanceled reports only the abandoned wait).
// All failures carry the Error taxonomy of this package.
func (s *System) Submit(ctx context.Context, cmd Command) (any, error) {
	// The sync path's Receipt never leaves this frame, so it costs no
	// allocation — which is why it goes through await and resolve, not
	// Wait: a mutex that is locked moves its struct to the heap.
	var r Receipt
	if err := s.submitInto(ctx, cmd, &r); err != nil {
		return nil, err
	}
	resolved, err := r.await(ctx)
	if resolved {
		r.resolve(err)
	}
	if err != nil {
		return nil, err
	}
	return r.result, nil
}

// SubmitAsync applies one command and returns without waiting for
// durability: validation and the engine mutation are synchronous (a
// non-nil error means nothing happened), but the journal record is only
// staged in its shard's commit pipeline. The Receipt resolves once the
// record is fsync-covered, so a caller pipelines appends — submit,
// collect receipts, await them in bulk — instead of paying one fsync
// round-trip per command. Control commands are durable on return (their
// epoch semantics require it); their receipts resolve immediately.
func (s *System) SubmitAsync(ctx context.Context, cmd Command) (*Receipt, error) {
	r := new(Receipt)
	if err := s.submitInto(ctx, cmd, r); err != nil {
		return nil, err
	}
	return r, nil
}

// submitInto is Submit and SubmitAsync up to the durability wait: it
// applies cmd, stages its record and fills the caller's zero Receipt,
// recording the submit metrics around the core.
func (s *System) submitInto(ctx context.Context, cmd Command, r *Receipt) error {
	c, ok := cmd.(command)
	if !ok {
		return &Error{Code: CodeInvalid, Op: cmd.CommandName(),
			Err: fmt.Errorf("adept2: foreign Command implementation %T", cmd)}
	}
	m := s.met
	if m == nil {
		// Metrics off: no recording, no clock reads — one branch.
		return s.submitOne(ctx, c, nil, r)
	}
	start := time.Now()
	var span *obs.Span
	if m.Ring.Sample() {
		span = &obs.Span{Op: c.CommandName(), Instance: c.target(), SubmitNanos: s.now()}
	}
	if err := s.submitOne(ctx, c, span, r); err != nil {
		m.SubmitErr(c.opIndex(), codeIndexOf(err))
		if span != nil {
			span.Err = string(codeOf(err))
			m.Ring.Publish(*span)
		}
		return err
	}
	m.SubmitOK(c.opIndex(), time.Since(start).Nanoseconds())
	return nil
}

// submitOne is the submission core: validation, wedge check, barrier,
// apply, journal staging. span (when the trace ring sampled this
// command) is stamped along the way and either published here (durable
// on return) or handed to the Receipt to publish when Wait resolves.
func (s *System) submitOne(ctx context.Context, c command, span *obs.Span, rcpt *Receipt) error {
	if err := ctx.Err(); err != nil {
		return wrapErr(c.CommandName(), c.target(), err)
	}
	// Degraded mode: a wedged durability pipeline fails submissions fast,
	// BEFORE the engine mutation (Applied stays false — nothing happened),
	// instead of mutating state whose journal record could never become
	// durable. Reads keep flowing; Heal restores write service.
	if err := s.wedgedErr(); err != nil {
		return &Error{Code: CodeWedged, Op: c.CommandName(), Instance: c.target(), Err: err}
	}
	var unlock func()
	if c.control() {
		unlock = s.lockControl()
	} else {
		s.snapMu.RLock()
		unlock = s.snapMu.RUnlock
	}
	eff, err := c.run(s)
	if err == nil {
		if span != nil {
			span.AppliedNanos = s.now()
		}
		err = finishEffect(c, &eff)
	}
	if err != nil {
		unlock()
		return wrapErr(c.CommandName(), c.target(), err)
	}
	err = s.appendEffect(&eff, rcpt)
	unlock()
	if err != nil {
		return s.wrapAppendErr(c.CommandName(), eff.inst, eff.result, err)
	}
	rcpt.op = c.CommandName()
	rcpt.inst = eff.inst
	rcpt.result = eff.result
	if span != nil {
		span.Shard, span.Seq = rcpt.shard, rcpt.seq
		if rcpt.wal == nil {
			span.DurableNanos = s.now()
			s.met.Ring.Publish(*span)
		} else {
			rcpt.span, rcpt.ring = span, s.met.Ring
			rcpt.nowNanos = func() int64 { return s.now() }
		}
	}
	return nil
}

// SubmitBatch applies a sequence of commands, journaling each run of
// consecutive data commands as ONE batch: the command barrier is taken
// once per run, the encoded records land in one multi-record append per
// touched journal (one commit wait each), and the call returns once
// everything is durable. Control commands interleaved in the batch keep
// their exclusive-barrier epoch semantics — each one is applied and made
// durable individually before the batch continues.
//
// Results align with the applied prefix of cmds. On error, the commands
// before the failing one remain applied AND journaled (their results are
// returned); the failing command had no effect.
func (s *System) SubmitBatch(ctx context.Context, cmds []Command) ([]any, error) {
	results := make([]any, 0, len(cmds))
	i := 0
	for i < len(cmds) {
		ci, ok := cmds[i].(command)
		if !ok {
			return results, &Error{Code: CodeInvalid, Op: cmds[i].CommandName(),
				Err: fmt.Errorf("adept2: foreign Command implementation %T", cmds[i])}
		}
		if err := ctx.Err(); err != nil {
			return results, wrapErr(ci.CommandName(), ci.target(), err)
		}
		if ci.control() {
			res, err := s.Submit(ctx, cmds[i])
			if err != nil {
				return results, err
			}
			results = append(results, res)
			i++
			continue
		}

		// A run of consecutive data commands: apply under one shared
		// barrier acquisition, journal as one batch. A failing command
		// ends the run — the applied prefix MUST still be journaled
		// (its engine mutations happened).
		var runErr error
		effs := make([]effect, 0, len(cmds)-i)
		j := i
		s.snapMu.RLock()
		for ; j < len(cmds); j++ {
			cj, ok := cmds[j].(command)
			if !ok || cj.control() {
				break
			}
			// The wedge check runs per command, before its engine
			// mutation: commands already applied in this run stay in the
			// journaled prefix, the rest fail fast un-applied.
			if err := s.wedgedErr(); err != nil {
				runErr = &Error{Code: CodeWedged, Op: cj.CommandName(), Instance: cj.target(), Err: err}
				s.met.SubmitErr(cj.opIndex(), codeIndexOf(runErr))
				break
			}
			eff, err := cj.run(s)
			if err == nil {
				err = finishEffect(cj, &eff)
			}
			if err != nil {
				runErr = wrapErr(cj.CommandName(), cj.target(), err)
				s.met.SubmitErr(cj.opIndex(), codeIndexOf(runErr))
				break
			}
			s.met.SubmitBatched(cj.opIndex())
			effs = append(effs, eff)
		}
		appendErr := s.appendBatchRun(ctx, effs)
		s.snapMu.RUnlock()
		for i := range effs {
			results = append(results, effs[i].result)
		}
		if appendErr != nil {
			return results, s.wrapAppendErr("batch", "", nil, appendErr)
		}
		if runErr != nil {
			return results, runErr
		}
		i = j
	}
	return results, nil
}

// appendEffect journals one effect without waiting for durability and
// fills in where rcpt's wait finds it: a zero rcpt stays "durable already"
// (New(), control records). Callers hold the command barrier.
func (s *System) appendEffect(eff *effect, rcpt *Receipt) error {
	defer eff.release()
	if s.wal == nil {
		return nil // New(): nothing is journaled
	}
	if eff.inst == "" {
		// Control records advance the epoch, which is only sound once the
		// record is durable — so they never pipeline.
		seq, err := s.wal.AppendControl(eff.op, eff.args)
		if err != nil {
			return err
		}
		s.met.ShardAppend(0, 1)
		s.maybeCheckpoint()
		rcpt.seq = seq
		return nil
	}
	shard, seq, err := s.wal.AppendDataAsync(eff.inst, eff.op, eff.args)
	if err != nil {
		return err
	}
	s.met.ShardAppend(shard, 1)
	s.maybeCheckpoint()
	rcpt.seq, rcpt.shard, rcpt.wal = seq, shard, s.wal
	return nil
}

// appendBatchRun journals one SubmitBatch run — a batch of data effects —
// as one multi-record append per touched shard, blocks until the batch is
// durable, and records the batch family: run size, append + durability-
// wait latency, and (on success) the per-shard staged-record counters.
// Callers hold the shared command barrier.
func (s *System) appendBatchRun(ctx context.Context, effs []effect) error {
	if len(effs) == 0 {
		return nil
	}
	m := s.met
	var start time.Time
	if m != nil { // metrics off: no clock reads
		start = time.Now()
	}
	var err error
	if s.wal != nil { // New(): nothing is journaled
		recs := make([]sharded.DataRecord, len(effs))
		for i, eff := range effs {
			recs[i] = sharded.DataRecord{Instance: eff.inst, Op: eff.op, Args: eff.args}
		}
		if err = s.wal.AppendDataMulti(ctx, recs); err == nil {
			s.maybeCheckpoint()
		}
	}
	for i := range effs {
		effs[i].release()
	}
	if m != nil {
		m.BatchSize.Observe(int64(len(effs)))
		m.BatchNanos.Observe(time.Since(start).Nanoseconds())
		if err == nil {
			for i := range effs {
				m.ShardAppend(sharded.ShardOf(effs[i].inst, s.layout.Shards), 1)
			}
		}
	}
	return err
}

// wrapAppendErr classifies a journaling failure: a wedged durability
// pipeline (sticky committer error) maps to ErrWedged, cancellations
// to ErrCanceled, everything else to ErrInternal. The engine mutation
// already happened when appending fails — the error reports lost
// durability, not a rejected command.
func (s *System) wrapAppendErr(op, inst string, res any, err error) error {
	if err == nil {
		return nil
	}
	var e *Error
	if errors.As(err, &e) {
		return err
	}
	code := CodeInternal
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		code = CodeCanceled
	case s.wedgedErr() != nil:
		code = CodeWedged
	}
	return &Error{Code: code, Op: op, Instance: inst, Applied: true, Result: res, Err: err}
}
