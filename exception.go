package adept2

import (
	"context"
	"errors"
	"time"

	"adept2/internal/fault"
)

// This file closes the detect→compensate loop of process-level fault
// tolerance. The engine detects exceptions (activity failures, deadline
// expiries) and records them as journaled commands; an ExceptionPolicy
// maps each exception to a compensating reaction (retry with backoff,
// skip via a machine-generated ad-hoc change, or suspend-and-escalate);
// System.Fail and System.SweepDeadlines drive the reactions back through
// the same typed command registry, so every machine-generated change is
// journaled, replayable, and crash-safe.

// ExceptionKind classifies a process-level exception.
type ExceptionKind uint8

const (
	// ActivityFailed: a running activity reported a failure. The attempt
	// was undone (node back to activated, execution purged from the
	// logical history) and its re-offer may be suppressed pending
	// compensation.
	ActivityFailed ExceptionKind = iota
	// DeadlineExpired: a running activity exceeded its armed deadline.
	// The activity keeps running but its work item escalated to the
	// node's escalation role.
	DeadlineExpired
)

var exceptionKindNames = [...]string{"activity-failed", "deadline-expired"}

func (k ExceptionKind) String() string {
	if int(k) < len(exceptionKindNames) {
		return exceptionKindNames[k]
	}
	return "unknown"
}

// Exception is one detected process-level exception, as presented to an
// ExceptionPolicy.
type Exception struct {
	Instance string
	Node     string
	Kind     ExceptionKind
	// Reason is the failure reason reported by the activity (empty for
	// deadline expiries).
	Reason string
	// Failures is the node's consecutive-failure count including the
	// failure being decided (1 on the first failure).
	Failures int
	// Err is the taxonomy form of the exception: an *Error carrying
	// CodeFailed or CodeTimeout, so policies can errors.Is against the
	// ErrFailed/ErrTimeout sentinels.
	Err error
}

// CompensationAction enumerates the reactions a policy can choose.
type CompensationAction uint8

const (
	// ActionNone leaves the exception alone. A failed activity without a
	// suppression window is re-offered immediately; an escalated
	// activity stays with the escalation role.
	ActionNone CompensationAction = iota
	// ActionRetry re-offers the failed activity, after Reaction.Backoff
	// when set (the work item stays suppressed until the backoff
	// elapses and the deadline sweep lifts it).
	ActionRetry
	// ActionSkip deletes the failed activity through a machine-generated
	// ad-hoc change — the paper's instance-level change dimension used
	// as a compensation primitive. Falls back to ActionSuspend when the
	// deletion would not be compliant.
	ActionSkip
	// ActionSuspend suspends the instance for human intervention.
	ActionSuspend
)

var actionNames = [...]string{"none", "retry", "skip", "suspend"}

func (a CompensationAction) String() string {
	if int(a) < len(actionNames) {
		return actionNames[a]
	}
	return "unknown"
}

// Reaction is a policy's decision for one exception.
type Reaction struct {
	Action CompensationAction
	// Backoff delays the re-offer of an ActionRetry reaction. Zero
	// re-offers immediately.
	Backoff time.Duration
}

// ExceptionPolicy maps detected exceptions to compensating reactions.
// Decide must be deterministic in its argument: it runs on the live
// path only (never during replay — the chosen compensation is journaled
// as its own command), but the sweep may re-present an exception whose
// compensation was lost to a crash, and flapping decisions would then
// oscillate the instance.
type ExceptionPolicy interface {
	Decide(Exception) Reaction
}

// PolicyFunc adapts a function to an ExceptionPolicy.
type PolicyFunc func(Exception) Reaction

// Decide implements ExceptionPolicy.
func (f PolicyFunc) Decide(x Exception) Reaction { return f(x) }

// RetryThenSuspend is the default compensation policy: retry a failed
// activity with exponential backoff (backoff, 2·backoff, 4·backoff, …)
// up to maxRetries attempts, then suspend the instance for human
// intervention. Deadline expiries get ActionNone — the escalation
// re-offer already happened and the activity may still complete.
func RetryThenSuspend(maxRetries int, backoff time.Duration) ExceptionPolicy {
	return PolicyFunc(func(x Exception) Reaction {
		if x.Kind == DeadlineExpired {
			return Reaction{Action: ActionNone}
		}
		if x.Failures <= maxRetries {
			d := backoff
			for i := 1; i < x.Failures; i++ {
				d *= 2
			}
			return Reaction{Action: ActionRetry, Backoff: d}
		}
		return Reaction{Action: ActionSuspend}
	})
}

// WithClock injects the time source used to stamp journal records (start
// times arming deadlines, sweep times). Only the live command path reads
// the clock — every timestamp that matters is stamped onto the journal
// record, so replay is deterministic regardless of the clock. Tests and
// simulations inject a logical clock here.
func WithClock(now func() time.Time) Option {
	return func(c *config) {
		c.nowFn = func() int64 { return now().UnixNano() }
	}
}

// WithExceptionPolicy installs the policy consulted by System.Fail and
// the deadline sweep. Without one, failures re-offer immediately and
// expiries only escalate.
func WithExceptionPolicy(p ExceptionPolicy) Option {
	return func(c *config) { c.policy = p }
}

func exceptionErr(kind ExceptionKind, instID, node, reason string) error {
	if kind == DeadlineExpired {
		return &Error{Code: CodeTimeout, Op: "timeout", Instance: instID,
			Err: fault.Tagf(fault.Timeout, "adept2: %s/%s: deadline expired", instID, node)}
	}
	if reason == "" {
		reason = "activity failed"
	}
	return &Error{Code: CodeFailed, Op: "fail", Instance: instID,
		Err: fault.Tagf(fault.Failed, "adept2: %s/%s: %s", instID, node, reason)}
}

// Fail reports the failure of a running activity and drives the
// installed exception policy's compensation. The policy is consulted
// BEFORE the fail command is submitted so the chosen suppression window
// (retry backoff, pending compensation) rides the journaled fail record
// and replays identically; the compensating command itself (ad-hoc skip,
// suspend) is then submitted as its own journaled command. A crash
// between the two is healed by the next deadline sweep, which re-runs
// the policy over still-open exceptions.
func (s *System) Fail(ctx context.Context, instID, node, user, reason string) error {
	x := Exception{
		Instance: instID,
		Node:     node,
		Kind:     ActivityFailed,
		Reason:   reason,
		Failures: 1,
		Err:      exceptionErr(ActivityFailed, instID, node, reason),
	}
	if inst, ok := s.eng.Instance(instID); ok {
		x.Failures = inst.FailureCount(node) + 1
	}
	r := s.decide(x)
	cmd := &FailActivity{Instance: instID, Node: node, User: user, Reason: reason}
	switch r.Action {
	case ActionRetry:
		if r.Backoff > 0 {
			cmd.RetryAt = s.now() + int64(r.Backoff)
		}
	case ActionSkip, ActionSuspend:
		cmd.Pending = true
	}
	if _, err := s.Submit(ctx, cmd); err != nil {
		return err
	}
	return s.compensate(ctx, x, r)
}

func (s *System) decide(x Exception) Reaction {
	if s.policy == nil {
		return Reaction{Action: ActionNone}
	}
	r := s.policy.Decide(x)
	if m := s.met; m != nil && int(r.Action) < len(m.Exception.Actions) {
		m.Exception.Actions[r.Action].Inc()
	}
	return r
}

// compensate submits the journaled compensating command for a reaction.
// ActionSkip degrades to ActionSuspend when deleting the node would not
// be compliant (e.g. the region already progressed, or the node is
// running after a timeout).
func (s *System) compensate(ctx context.Context, x Exception, r Reaction) error {
	switch r.Action {
	case ActionSkip:
		_, err := s.Submit(ctx, &AdHoc{
			Instance: x.Instance,
			Ops:      []Operation{&DeleteActivity{ID: x.Node}},
		})
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrNotCompliant) && !errors.Is(err, ErrConflict) && !errors.Is(err, ErrInvalid) {
			return err
		}
		fallthrough
	case ActionSuspend:
		_, err := s.Submit(ctx, &Suspend{Instance: x.Instance})
		if err != nil && !errors.Is(err, ErrSuspended) && !errors.Is(err, ErrConflict) {
			return err
		}
	}
	return nil
}

// SweepReport summarizes one deadline sweep.
type SweepReport struct {
	// Timeouts is the number of deadline expiries fired.
	Timeouts int
	// Retries is the number of elapsed retry backoffs lifted.
	Retries int
	// Compensated is the number of policy compensations submitted for
	// still-open exceptions.
	Compensated int
	// Errors collects submit failures that were not raced-moot (an
	// instance completing, suspending, or disappearing between scan and
	// submit is not an error).
	Errors []error
}

// SweepDeadlines is the periodic exception timer: callers invoke it from
// a ticker (or a simulation step) with the current time. Three phases,
// each a scan followed by journaled commands:
//
//  1. every armed deadline at or before now fires a TimeoutActivity
//     (history Timeout event + work-item escalation);
//  2. every elapsed retry backoff lifts its suppression via
//     RetryActivity (the work item re-offers);
//  3. the exception policy re-runs over still-open exceptions —
//     including the timeouts just fired and any failure whose
//     compensation was lost to a crash — and its reactions are
//     submitted as compensating commands.
//
// Scans are deterministic (instance creation order, then node ID), so a
// sweep at a given logical time issues the same command sequence on any
// replica of the state. Commands that lose a race with user activity
// (ErrConflict/ErrNotFound/ErrCompleted/ErrSuspended) are skipped as
// moot; a wedged or canceled store aborts the sweep with the error.
func (s *System) SweepDeadlines(ctx context.Context, now time.Time) (*SweepReport, error) {
	start := time.Now()
	rep, err := s.sweepDeadlines(ctx, now)
	if m := s.met; m != nil {
		m.Exception.Sweeps.Inc()
		m.Exception.SweepNanos.Observe(time.Since(start).Nanoseconds())
		m.Exception.Escalations.Add(int64(rep.Timeouts))
		m.Exception.Compensated.Add(int64(rep.Compensated))
		m.Exception.SweepErrors.Add(int64(len(rep.Errors)))
	}
	return rep, err
}

func (s *System) sweepDeadlines(ctx context.Context, now time.Time) (*SweepReport, error) {
	rep := &SweepReport{}
	nowN := now.UnixNano()
	for _, ex := range s.eng.ExpiredDeadlines(nowN) {
		if _, err := s.Submit(ctx, &TimeoutActivity{Instance: ex.Instance, Node: ex.Node, At: nowN}); err != nil {
			if abort := rep.noteErr(err); abort != nil {
				return rep, abort
			}
			continue
		}
		rep.Timeouts++
	}
	for _, ex := range s.eng.DueRetries(nowN) {
		if _, err := s.Submit(ctx, &RetryActivity{Instance: ex.Instance, Node: ex.Node, At: nowN}); err != nil {
			if abort := rep.noteErr(err); abort != nil {
				return rep, abort
			}
			continue
		}
		rep.Retries++
	}
	if s.policy != nil {
		for _, ox := range s.eng.OpenExceptions() {
			x := Exception{Instance: ox.Instance, Node: ox.Node, Failures: ox.Failures}
			if ox.Timeout {
				x.Kind = DeadlineExpired
			}
			x.Err = exceptionErr(x.Kind, x.Instance, x.Node, "")
			r := s.decide(x)
			switch r.Action {
			case ActionRetry:
				// Only a failed node pending compensation can retry; an
				// escalated activity is still running.
				if ox.Timeout {
					continue
				}
				if _, err := s.Submit(ctx, &RetryActivity{Instance: x.Instance, Node: x.Node, At: nowN}); err != nil {
					if abort := rep.noteErr(err); abort != nil {
						return rep, abort
					}
					continue
				}
				rep.Compensated++
			case ActionSkip, ActionSuspend:
				if err := s.compensate(ctx, x, r); err != nil {
					if abort := rep.noteErr(err); abort != nil {
						return rep, abort
					}
					continue
				}
				rep.Compensated++
			}
		}
	}
	return rep, nil
}

// noteErr classifies a sweep submit error: raced-moot errors are
// dropped, wedge/cancel aborts the sweep, anything else is collected.
func (rep *SweepReport) noteErr(err error) error {
	if errors.Is(err, ErrConflict) || errors.Is(err, ErrNotFound) ||
		errors.Is(err, ErrCompleted) || errors.Is(err, ErrSuspended) {
		return nil
	}
	if errors.Is(err, ErrWedged) || errors.Is(err, ErrCanceled) {
		return err
	}
	rep.Errors = append(rep.Errors, err)
	return nil
}

// OpenExceptions lists the detected-but-uncompensated exceptions of all
// live instances: failed activities whose re-offer is suppressed pending
// compensation, and escalated activities still running past their
// deadline. Ordered by instance creation order, then node ID.
func (s *System) OpenExceptions() []Exception {
	var out []Exception
	for _, ox := range s.eng.OpenExceptions() {
		x := Exception{Instance: ox.Instance, Node: ox.Node, Failures: ox.Failures}
		if ox.Timeout {
			x.Kind = DeadlineExpired
		}
		x.Err = exceptionErr(x.Kind, x.Instance, x.Node, "")
		out = append(out, x)
	}
	return out
}
