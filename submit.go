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
	// built on the submit path, stamped with sys's clock and published
	// into sys's trace ring once the first Wait resolves the durability
	// outcome.
	span *obs.Span
	sys  *System

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
		r.span.DurableNanos = r.sys.now()
	} else {
		r.span.Err = string(codeOf(err))
	}
	r.sys.met.Ring.Publish(*r.span)
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
	c, err := asCommand(cmd)
	if err != nil {
		return err
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
		m.SubmitErr(c.row().index, codeIndexOf(err))
		if span != nil {
			span.Err = string(codeOf(err))
			m.Ring.Publish(*span)
		}
		return err
	}
	m.SubmitOK(c.row().index, time.Since(start).Nanoseconds())
	return nil
}

// asCommand admits a Command this package implemented and refuses a
// foreign one.
func asCommand(cmd Command) (command, error) {
	if c, ok := cmd.(command); ok {
		return c, nil
	}
	return nil, &Error{Code: CodeInvalid, Op: cmd.CommandName(),
		Err: fmt.Errorf("adept2: foreign Command implementation %T", cmd)}
}

// submitOne is the submission core: the barrier around one stage, then the
// wake-up of the record's shard. span (when the trace ring sampled this
// command) is stamped along the way and either published here (durable on
// return) or handed to the Receipt to publish when Wait resolves.
func (s *System) submitOne(ctx context.Context, c command, span *obs.Span, rcpt *Receipt) error {
	if err := ctx.Err(); err != nil {
		return wrapErr(c.CommandName(), c.target(), err)
	}
	var unlock func()
	if c.row().control {
		unlock = s.lockControl()
	} else {
		s.snapMu.RLock()
		unlock = s.snapMu.RUnlock
	}
	err := s.stage(c, span, rcpt)
	if err == nil && s.wal != nil {
		if rcpt.wal != nil {
			s.wal.Kick(rcpt.shard)
		}
		s.maybeCheckpoint()
	}
	unlock()
	if err != nil {
		return err
	}
	if span != nil {
		span.Shard, span.Seq = rcpt.shard, rcpt.seq
		if rcpt.wal == nil {
			span.DurableNanos = s.now()
			s.met.Ring.Publish(*span)
		} else {
			rcpt.span, rcpt.sys = span, s
		}
	}
	return nil
}

// stage is one command's turn under the command barrier, which the caller
// holds: the wedge check, the engine mutation (of the live form, live),
// the record's args and the staging of the record under its row's op, on
// the control log or on its instance's shard as the row says. Submit,
// SubmitAsync and every command of a SubmitBatch run go through it. It
// fills rcpt with the command's result
// and with where the record's wait finds it: a zero position means durable
// already (New(); a control record, which is durable on return). A data
// record is staged without waking its shard's flusher.
func (s *System) stage(c command, span *obs.Span, rcpt *Receipt) error {
	// Degraded mode: a wedged durability pipeline fails submissions fast,
	// BEFORE the engine mutation (Applied stays false — nothing happened),
	// instead of mutating state whose journal record could never become
	// durable. Reads keep flowing; Heal restores write service.
	if err := s.wedgedErr(); err != nil {
		return &Error{Code: CodeWedged, Op: c.CommandName(), Instance: c.target(), Err: err}
	}
	c = live(c)
	eff, err := c.run(s)
	if err == nil {
		if span != nil {
			span.AppliedNanos = s.now()
		}
		err = finishEffect(c, &eff)
	}
	if err != nil {
		return wrapErr(c.CommandName(), c.target(), err)
	}
	defer eff.release()
	rcpt.op, rcpt.inst, rcpt.result = c.CommandName(), eff.inst, eff.result
	if s.wal == nil {
		return nil // New(): nothing is journaled
	}
	if row := c.row(); row.control {
		// Control records advance the epoch, which is only sound once the
		// record is durable — so they never pipeline.
		rcpt.seq, err = s.wal.AppendControl(row.op, eff.args)
	} else {
		rcpt.shard, rcpt.seq, err = s.wal.AppendData(eff.inst, row.op, eff.args)
		rcpt.wal = s.wal
	}
	if err != nil {
		return s.wrapAppendErr(rcpt.op, eff.inst, eff.result, err)
	}
	s.met.ShardAppend(rcpt.shard, 1)
	return nil
}

// SubmitBatch applies a sequence of commands. A run of consecutive data
// commands is Submit's own path (stage) under one acquisition of the
// shared command barrier: each record is staged as soon as its command
// applies; then the barrier is released, each touched shard is woken once,
// and SubmitBatch waits until the run is durable. Control commands
// interleaved in the batch keep their exclusive-barrier epoch semantics:
// each one goes through Submit, applied and made durable individually
// before the batch continues.
//
// Results align with the applied prefix of cmds. On error, the commands
// before the failing one remain applied AND journaled (their results are
// returned, and they are durable unless the error reports the wait
// itself); the failing command had no effect unless its error says
// Applied.
func (s *System) SubmitBatch(ctx context.Context, cmds []Command) ([]any, error) {
	results := make([]any, 0, len(cmds))
	for len(cmds) > 0 {
		c, err := asCommand(cmds[0])
		if err != nil {
			return results, err
		}
		if err := ctx.Err(); err != nil {
			return results, wrapErr(c.CommandName(), c.target(), err)
		}
		if c.row().control {
			res, err := s.Submit(ctx, c)
			if err != nil {
				return results, err
			}
			results = append(results, res)
			cmds = cmds[1:]
			continue
		}
		var n int
		if results, n, err = s.submitRun(ctx, cmds, results); err != nil {
			return results, err
		}
		cmds = cmds[n:]
	}
	return results, nil
}

// submitRun is one SubmitBatch run: the data commands at the head of cmds,
// up to the first control or foreign one, each staged under one shared
// barrier acquisition, their results appended to results. Once the barrier
// is released it wakes each touched shard once, in ascending order, and
// waits on the positions the run staged — the wait holds no barrier, and
// a failing command ends the run with every command before it staged and
// awaited. n is how many commands the run took.
func (s *System) submitRun(ctx context.Context, cmds []Command, results []any) (_ []any, n int, err error) {
	var last []int // per shard: the run's last staged sequence number, 0 if none
	if s.wal != nil {
		last = make([]int, s.layout.Shards)
	}
	m := s.met
	staged := 0
	s.snapMu.RLock()
	for ; n < len(cmds); n++ {
		c, ok := cmds[n].(command)
		if !ok || c.row().control {
			break
		}
		var r Receipt
		if err = s.stage(c, nil, &r); err != nil {
			m.SubmitErr(c.row().index, codeIndexOf(err))
			break
		}
		m.SubmitBatched(c.row().index)
		results = append(results, r.result)
		staged++
		if r.wal != nil {
			last[r.shard] = r.seq
		}
	}
	s.snapMu.RUnlock()
	if staged == 0 {
		return results, n, err
	}
	if s.wal != nil {
		for k, seq := range last {
			if seq > 0 {
				s.wal.Kick(k)
			}
		}
		s.maybeCheckpoint()
	}
	var start time.Time
	if m != nil { // metrics off: no clock reads
		start = time.Now()
	}
	var werr error
	for k, seq := range last {
		if seq > 0 {
			if werr = s.wal.WaitShardSeq(ctx, k, seq); werr != nil {
				break
			}
		}
	}
	if m != nil {
		m.BatchSize.Observe(int64(staged))
		m.BatchNanos.Observe(time.Since(start).Nanoseconds())
	}
	if werr != nil {
		return results, n, s.wrapAppendErr("batch", "", nil, werr)
	}
	return results, n, err
}

// wrapAppendErr classifies a journaling failure: a wedged durability
// pipeline (sticky committer error) maps to ErrWedged, cancellations
// to ErrCanceled, everything else to ErrInternal. The engine mutation
// already happened when appending fails — the error reports lost
// durability, not a rejected command.
func (s *System) wrapAppendErr(op, inst string, res any, err error) error {
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
