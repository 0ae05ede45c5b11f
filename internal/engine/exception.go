package engine

import (
	"cmp"
	"slices"
	"strings"

	"adept2/internal/fault"
	"adept2/internal/history"
	"adept2/internal/state"
)

// This file implements the process-level exception transitions of the
// ADEPT2 engine: activity failure (the attempt is undone and purged from
// the logical history), deadline expiry (the activity keeps running but
// its work item escalates), and retry (the suppressed work item of a
// failed activity is re-offered). Each transition is driven by its own
// journaled command — a failure or an expiry with its reaction, under one
// Mutate — so replay rebuilds identical exception state.

// ExceptionState is one node's exception record: what the failure,
// deadline and retry transitions keep about it. The zero record is a node
// without exception state, and the instance stores none.
type ExceptionState struct {
	// Deadline is the absolute expiry (unix nanos) armed when a
	// deadline-bearing activity started, while Armed.
	Deadline int64
	// RetryAt is the time (unix nanos) a failed activity's re-offer
	// becomes due — its work item is suppressed until then — or 0 when no
	// backoff is pending.
	RetryAt int64
	// Failures counts consecutive failed attempts, reset on successful
	// completion or loop purge.
	Failures int
	// Armed reports that Deadline is armed.
	Armed bool
	// Escalated marks a running node whose deadline fired and whose item
	// was re-offered to the escalation role.
	Escalated bool
	// Pending marks a failed node whose item is withheld until a Retry
	// command (a suspend reaction, or an older journal's pending).
	Pending bool
}

// setException stores the node's record, or drops it when it is empty.
func (r *running) setException(node string, x ExceptionState) {
	if x == (ExceptionState{}) {
		delete(r.exceptions, node)
		return
	}
	if r.exceptions == nil {
		r.exceptions = make(map[string]ExceptionState)
	}
	r.exceptions[node] = x
}

// failLocked records that a running node's execution failed. The attempt
// is undone: a Failed event is appended to the physical history, the
// node's execution record is purged from the fast compliance index
// (mirroring Reduce, which drops the Started/Failed pair), the node
// reverts to activated, and its record counts the failure and disarms its
// deadline; the caller's worklist sync re-offers it unless suppressLocked
// withheld it.
func (inst *Instance) failLocked(node, user, reason string, retryAt int64, pending bool) error {
	if err := checkUTF8("fail", "user", user); err != nil {
		return err
	}
	if err := checkUTF8("fail", "reason", reason); err != nil {
		return err
	}
	if err := inst.openLocked("fail", node); err != nil {
		return err
	}
	v, _ := inst.viewLocked()
	if n, ok := v.Node(node); ok {
		node = n.ID // as in startLocked; a node the view lacks is not running
	}
	if got := inst.run.marking.Node(node); got != state.Running {
		return fault.Tagf(fault.Conflict, "engine: fail %s/%s: node is %s, not running", inst.id, node, got)
	}
	inst.hist.Append(&history.Event{Kind: history.Failed, Node: node, User: user, Reason: reason, Decision: -1})
	inst.run.stats.OnFail(node)
	inst.run.marking.SetNode(node, state.Activated)
	x := inst.run.exceptions[node]
	x.Failures++
	x.Deadline, x.Armed, x.Escalated = 0, false, false
	inst.run.setException(node, x)
	inst.suppressLocked(node, retryAt, pending)
	// The failed assignee's in-progress item is stale either way; the
	// sync re-offers to the role's candidates unless suppressed.
	inst.eng.wl.Withdraw(inst.id, node)
	return nil
}

// suppressLocked withholds a failed node's work item until retryAt (unix
// nanos, when not 0) or, when pending, until a Retry releases it.
func (inst *Instance) suppressLocked(node string, retryAt int64, pending bool) {
	x := inst.run.exceptions[node]
	if retryAt != 0 {
		x.RetryAt = retryAt
	}
	x.Pending = x.Pending || pending
	inst.run.setException(node, x)
}

// Fail is failLocked, unsuppressed, returning the node's failure count.
func (mx *Mutable) Fail(node, user, reason string) (int, error) {
	if err := mx.inst.failLocked(node, user, reason, 0, false); err != nil {
		return 0, err
	}
	return mx.inst.run.exceptions[node].Failures, nil
}

// Timeout is timeoutLocked, returning the node's failure count.
func (mx *Mutable) Timeout(node string) (int, error) {
	if err := mx.inst.timeoutLocked(node); err != nil {
		return 0, err
	}
	return mx.inst.run.exceptions[node].Failures, nil
}

// Suppress withholds a failed node's work item (suppressLocked).
func (mx *Mutable) Suppress(node string, retryAt int64, pending bool) {
	v, _ := mx.inst.viewLocked()
	if n, ok := v.Node(node); ok {
		node = n.ID // the record is keyed by the schema's string
	}
	mx.inst.suppressLocked(node, retryAt, pending)
}

// Suspend blocks user operations on the instance.
func (mx *Mutable) Suspend() { mx.inst.suspended = true }

// timeoutLocked records that a running node exceeded its armed deadline:
// a Timeout event is appended, the deadline disarms (it fires exactly
// once), and the work item escalates — it is withdrawn from the original
// assignee and re-offered to the node's escalation role (its own role
// when none is configured).
func (inst *Instance) timeoutLocked(node string) error {
	if err := inst.openLocked("timeout", node); err != nil {
		return err
	}
	v, _ := inst.viewLocked()
	n, ok := v.Node(node)
	if !ok {
		return fault.Tagf(fault.NotFound, "engine: timeout %s/%s: no such node", inst.id, node)
	}
	node = n.ID // as in startLocked
	if got := inst.run.marking.Node(node); got != state.Running {
		return fault.Tagf(fault.Conflict, "engine: timeout %s/%s: node is %s, not running", inst.id, node, got)
	}
	x := inst.run.exceptions[node]
	if !x.Armed {
		return fault.Tagf(fault.Conflict, "engine: timeout %s/%s: no armed deadline", inst.id, node)
	}
	inst.hist.Append(&history.Event{Kind: history.Timeout, Node: node, Reason: "deadline expired", Decision: -1})
	x.Deadline, x.Armed, x.Escalated = 0, false, true
	inst.run.setException(node, x)
	role := n.Escalation
	if role == "" {
		role = n.Role
	}
	inst.eng.wl.Escalate(inst.id, node, role, inst.eng.org.UsersInRole(role))
	return nil
}

// openLocked refuses an exception transition on a finished or suspended
// instance.
func (inst *Instance) openLocked(op, node string) error {
	if inst.done {
		return fault.Tagf(fault.Completed, "engine: %s %s/%s: instance is completed", op, inst.id, node)
	}
	if inst.suspended {
		return fault.Tagf(fault.Suspended, "engine: %s %s/%s: instance is suspended", op, inst.id, node)
	}
	return nil
}

// retryLocked lifts the suppression of a failed node's work item: the
// retry backoff and any pending mark are cleared, for the worklist sync to
// re-offer the item.
func (inst *Instance) retryLocked(node string) error {
	if err := inst.openLocked("retry", node); err != nil {
		return err
	}
	if got := inst.run.marking.Node(node); got != state.Activated {
		return fault.Tagf(fault.Conflict, "engine: retry %s/%s: node is %s, not activated", inst.id, node, got)
	}
	x := inst.run.exceptions[node]
	if x.RetryAt == 0 && !x.Pending {
		return fault.Tagf(fault.Conflict, "engine: retry %s/%s: no suppressed retry pending", inst.id, node)
	}
	x.RetryAt, x.Pending = 0, false
	inst.run.setException(node, x)
	return nil
}

// RetryActivity re-offers the suppressed work item of a failed activity
// (see retryLocked).
func (e *Engine) RetryActivity(instID, node string) error {
	inst, ok := e.Instance(instID)
	if !ok {
		return fault.Tagf(fault.NotFound, "engine: retry: unknown instance %q", instID)
	}
	return inst.Mutate(func(*Mutable) error { return inst.retryLocked(node) })
}

// Expiry identifies one due exception-timer entry: an armed deadline
// that expired, or a retry backoff that became due.
type Expiry struct {
	Instance string
	Node     string
}

// ExpiredDeadlines lists the armed deadlines of running nodes at or
// before now (due).
func (e *Engine) ExpiredDeadlines(now int64) []Expiry {
	return e.due(now, state.Running, func(x ExceptionState) (int64, bool) { return x.Deadline, x.Armed })
}

// DueRetries lists the retry backoffs of activated nodes due at or before
// now (due).
func (e *Engine) DueRetries(now int64) []Expiry {
	return e.due(now, state.Activated, func(x ExceptionState) (int64, bool) { return x.RetryAt, x.RetryAt != 0 })
}

// due scans all live instances for the records whose timer — the time
// and whether it is set — is at or before now and whose node is in state
// st, ordered by instance key (CompareInstanceIDs), then node ID —
// deterministic, so a sweep issues the same command sequence regardless
// of map iteration, on a live engine and on its recovery.
func (e *Engine) due(now int64, st state.NodeState, timer func(ExceptionState) (int64, bool)) []Expiry {
	var out []Expiry
	for _, inst := range e.Instances() {
		inst.mu.Lock()
		if !inst.done && !inst.suspended {
			for node, x := range inst.run.exceptions {
				if at, set := timer(x); set && at <= now && inst.run.marking.Node(node) == st {
					out = append(out, Expiry{Instance: inst.id, Node: node})
				}
			}
		}
		inst.mu.Unlock()
	}
	slices.SortFunc(out, func(a, b Expiry) int {
		return cmp.Or(CompareInstanceIDs(a.Instance, b.Instance), strings.Compare(a.Node, b.Node))
	})
	return out
}

// OpenException describes an exception that is still open: a failed
// node withheld until a Retry, or a running node whose deadline fired.
type OpenException struct {
	Instance string
	Node     string
	// Timeout distinguishes deadline expiries from activity failures.
	Timeout bool
	// Failures is the node's consecutive-failure count.
	Failures int
}

// OpenExceptions scans all live instances for open exceptions, ordered
// by instance key (CompareInstanceIDs), then node ID. The policy reacted
// to each in the command that detected it; nothing presents one to it
// again.
func (e *Engine) OpenExceptions() []OpenException {
	var out []OpenException
	for _, inst := range e.Instances() {
		inst.mu.Lock()
		if !inst.done && !inst.suspended {
			for node, x := range inst.run.exceptions {
				switch s := inst.run.marking.Node(node); {
				case x.Pending && s == state.Activated:
					out = append(out, OpenException{Instance: inst.id, Node: node, Failures: x.Failures})
				case x.Escalated && s == state.Running:
					out = append(out, OpenException{Instance: inst.id, Node: node, Timeout: true, Failures: x.Failures})
				}
			}
		}
		inst.mu.Unlock()
	}
	// A node has one record: no two entries tie.
	slices.SortFunc(out, func(a, b OpenException) int {
		return cmp.Or(CompareInstanceIDs(a.Instance, b.Instance), strings.Compare(a.Node, b.Node))
	})
	return out
}
