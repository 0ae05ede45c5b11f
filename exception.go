package adept2

import (
	"context"
	"errors"
	"math"
	"slices"
	"time"

	"adept2/internal/change"
	"adept2/internal/engine"
	"adept2/internal/fault"
)

// This file closes the detect→react loop of process-level fault
// tolerance: a failure or a deadline expiry and the ExceptionPolicy's
// reaction to it are one journaled command (doc.go, "Exceptions,
// deadlines, and escalation").

// ExceptionKind classifies a process-level exception.
type ExceptionKind uint8

const (
	// ActivityFailed: a running activity reported a failure. The attempt
	// was undone (node back to activated, execution purged from the
	// logical history) and the reaction may withhold its re-offer.
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
	// ActionNone leaves the exception alone. A failed activity is
	// re-offered immediately; an escalated activity stays with the
	// escalation role.
	ActionNone CompensationAction = iota
	// ActionRetry re-offers the failed activity, after Reaction.Backoff
	// when set (the work item stays withheld until the backoff elapses
	// and the deadline sweep lifts it). A deadline expiry is not retried.
	ActionRetry
	// ActionSkip deletes the activity through the trial an ad-hoc change
	// runs — the paper's instance-level change dimension used as a
	// compensation primitive. It suspends where the deletion would not be
	// compliant (a running activity's never is).
	ActionSkip
	// ActionSuspend suspends the instance for human intervention; a
	// failed activity's item stays withheld until a RetryActivity.
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

// ExceptionPolicy maps detected exceptions to reactions. Decide runs
// inside the fail or timeout command, on the live path only, under the
// instance's lock: it must not call the System (a command on the same
// instance would wait on that lock forever). Each exception is presented
// once — its reaction rides the command's record, which replay applies
// without asking the policy — and never again.
type ExceptionPolicy interface {
	Decide(Exception) Reaction
}

// PolicyFunc adapts a function to an ExceptionPolicy.
type PolicyFunc func(Exception) Reaction

// Decide implements ExceptionPolicy.
func (f PolicyFunc) Decide(x Exception) Reaction { return f(x) }

// RetryThenSuspend is the default compensation policy: retry a failed
// activity with exponential backoff (backoff, 2·backoff, 4·backoff, …,
// saturating at the largest Duration) up to maxRetries attempts, then
// suspend the instance for human intervention. Deadline expiries get
// ActionNone — the escalation re-offer already happened and the activity
// may still complete.
func RetryThenSuspend(maxRetries int, backoff time.Duration) ExceptionPolicy {
	return PolicyFunc(func(x Exception) Reaction {
		if x.Kind == DeadlineExpired {
			return Reaction{Action: ActionNone}
		}
		if n := max(x.Failures-1, 0); x.Failures <= maxRetries {
			if backoff > 0 && (n >= 63 || backoff > math.MaxInt64>>n) {
				return Reaction{Action: ActionRetry, Backoff: math.MaxInt64}
			}
			return Reaction{Action: ActionRetry, Backoff: backoff << n}
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

// WithExceptionPolicy installs the policy that fail and timeout commands
// ask (see ExceptionPolicy). Without one, a failed activity is re-offered
// at once and an expiry only escalates.
func WithExceptionPolicy(p ExceptionPolicy) Option {
	return func(c *config) { c.policy = p }
}

func exceptionErr(kind ExceptionKind, instID, node, reason string) error {
	if kind == DeadlineExpired {
		return &Error{Code: CodeTimeout, Op: timeoutCmd.name, Instance: instID,
			Err: fault.Tagf(fault.Timeout, "adept2: %s/%s: deadline expired", instID, node)}
	}
	if reason == "" {
		reason = "activity failed"
	}
	return &Error{Code: CodeFailed, Op: failCmd.name, Instance: instID,
		Err: fault.Tagf(fault.Failed, "adept2: %s/%s: %s", instID, node, reason)}
}

// reaction is a reaction as a record carries it: the action applied, the
// end of a retry's backoff, and an older journal's pending mark.
type reaction struct {
	action  CompensationAction
	retryAt int64
	pending bool
}

// reactionNames names each action in a record, none as "".
var reactionNames = [...]string{"", "retry", "skip", "suspend"}

// except is a failure's or a timeout's command under the instance's lock:
// detect records the exception and returns the node's failure count, and
// a reaction is applied — live, the policy's, decided here; on replay the
// record's, r with the action name. It returns the reaction applied.
func (s *System) except(x Exception, live bool, name string, r reaction, detect func(*engine.Mutable) (int, error)) (reaction, error) {
	a := slices.Index(reactionNames[:], name)
	if a < 0 {
		return r, fault.Tagf(fault.Invalid, "adept2: unknown reaction %q", name)
	}
	r.action = CompensationAction(a)
	inst, ok := s.eng.Instance(x.Instance)
	if !ok {
		return r, fault.Tagf(fault.NotFound, "adept2: unknown instance %q", x.Instance)
	}
	err := inst.Mutate(func(mx *engine.Mutable) (err error) {
		if x.Failures, err = detect(mx); err != nil {
			return err
		}
		if live {
			x.Err = exceptionErr(x.Kind, x.Instance, x.Node, x.Reason)
			r = s.decide(x)
		}
		r.action, err = react(mx, x, r)
		return err
	})
	if m := s.met; m != nil && err == nil && live && r.action >= ActionSkip {
		m.Exception.Compensated.Inc()
	}
	return r, err
}

// decide asks the policy, stamping a retry's backoff onto the clock
// (saturating). Without a policy, and for a retry of a running activity or
// an action this package does not define, the reaction is none.
func (s *System) decide(x Exception) reaction {
	if s.policy == nil {
		return reaction{}
	}
	d := s.policy.Decide(x)
	if m := s.met; m != nil && int(d.Action) < len(m.Exception.Actions) {
		m.Exception.Actions[d.Action].Inc()
	}
	retry := d.Action == ActionRetry && x.Kind == ActivityFailed
	switch {
	case retry && d.Backoff > 0:
		if now := s.now(); int64(d.Backoff) < math.MaxInt64-now {
			return reaction{action: ActionRetry, retryAt: now + int64(d.Backoff)}
		}
		return reaction{action: ActionRetry, retryAt: math.MaxInt64}
	case retry, d.Action == ActionSkip, d.Action == ActionSuspend:
		return reaction{action: d.Action}
	}
	return reaction{}
}

// react applies r to the exception just recorded and returns the action
// applied: a skip deletes the node through the trial an ad-hoc change
// runs, and suspends where that trial refuses; a suspend withholds a
// failed node's item until a RetryActivity releases it.
func react(mx *engine.Mutable, x Exception, r reaction) (CompensationAction, error) {
	mx.Suppress(x.Node, r.retryAt, r.pending)
	switch r.action {
	case ActionSkip:
		err := change.ApplyAdHocIn(mx, &DeleteActivity{ID: x.Node})
		if k := fault.KindOf(err); err == nil || k != fault.NotCompliant && k != fault.Conflict && k != fault.Invalid {
			return ActionSkip, err
		}
		fallthrough
	case ActionSuspend:
		if x.Kind == ActivityFailed {
			mx.Suppress(x.Node, 0, true)
		}
		mx.Suspend()
		return ActionSuspend, nil
	}
	return r.action, nil
}

// SweepReport summarizes one deadline sweep.
type SweepReport struct {
	// Timeouts is the number of deadline expiries fired.
	Timeouts int
	// Retries is the number of elapsed retry backoffs lifted.
	Retries int
	// Errors collects submit failures that were not raced-moot (an
	// instance completing, suspending, or disappearing between scan and
	// submit is not an error).
	Errors []error
}

// SweepDeadlines is the periodic exception timer: callers invoke it from
// a ticker (or a simulation step) with the current time. Two phases,
// each a scan followed by journaled commands:
//
//  1. every armed deadline at or before now fires a TimeoutActivity
//     (history Timeout event + work-item escalation, and the policy's
//     reaction in the same command);
//  2. every elapsed retry backoff lifts its suppression via
//     RetryActivity (the work item re-offers).
//
// Scans are deterministic (instance key — an engine-assigned ID by its
// number, before foreign IDs in string order — then node ID), so a sweep
// at a given logical time issues the same command sequence on any replica
// of the state, live or recovered. Commands that lose a race with user activity
// (ErrConflict/ErrNotFound/ErrCompleted/ErrSuspended) are skipped as
// moot; a wedged or canceled store aborts the sweep with the error.
func (s *System) SweepDeadlines(ctx context.Context, now time.Time) (*SweepReport, error) {
	start, rep, nowN := time.Now(), &SweepReport{}, now.UnixNano()
	if m := s.met; m != nil {
		defer func() {
			m.Exception.Sweeps.Inc()
			m.Exception.SweepNanos.Observe(time.Since(start).Nanoseconds())
			m.Exception.SweepErrors.Add(int64(len(rep.Errors)))
		}()
	}
	submit := func(cmd Command, n *int) error {
		if _, err := s.Submit(ctx, cmd); err != nil {
			return rep.noteErr(err)
		}
		*n++
		return nil
	}
	for _, ex := range s.eng.ExpiredDeadlines(nowN) {
		if err := submit(&TimeoutActivity{Instance: ex.Instance, Node: ex.Node, At: nowN}, &rep.Timeouts); err != nil {
			return rep, err
		}
	}
	for _, ex := range s.eng.DueRetries(nowN) {
		if err := submit(&RetryActivity{Instance: ex.Instance, Node: ex.Node, At: nowN}, &rep.Retries); err != nil {
			return rep, err
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

// OpenExceptions lists the open exceptions of all live instances: failed
// activities withheld until a RetryActivity (after a suspend, or an older
// journal's pending failure), and escalated activities still running past
// their deadline. Ordered by instance key, as a sweep scans, then node ID.
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
