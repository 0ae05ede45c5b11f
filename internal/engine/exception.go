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

// failLocked records that a running node's execution failed. The attempt
// is undone: a Failed event is appended to the physical history, the
// node's execution record is purged from the fast compliance index
// (mirroring Reduce, which drops the Started/Failed pair), and the node
// reverts to activated; the caller's worklist sync re-offers it unless
// suppressLocked withheld it.
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
	if inst.run.failures == nil {
		inst.run.failures = make(map[string]int)
	}
	inst.run.failures[node]++
	delete(inst.run.deadlines, node)
	delete(inst.run.escalated, node)
	inst.suppressLocked(node, retryAt, pending)
	// The failed assignee's in-progress item is stale either way; the
	// sync re-offers to the role's candidates unless suppressed.
	inst.eng.wl.Withdraw(inst.id, node)
	return nil
}

// suppressLocked withholds a failed node's work item until retryAt (unix
// nanos, when not 0) or, when pending, until a Retry releases it.
func (inst *Instance) suppressLocked(node string, retryAt int64, pending bool) {
	if retryAt != 0 {
		if inst.run.retryAt == nil {
			inst.run.retryAt = make(map[string]int64)
		}
		inst.run.retryAt[node] = retryAt
	}
	if pending {
		if inst.run.compPending == nil {
			inst.run.compPending = make(map[string]bool)
		}
		inst.run.compPending[node] = true
	}
}

// Fail is failLocked, unsuppressed, returning the node's failure count.
func (mx *Mutable) Fail(node, user, reason string) (int, error) {
	if err := mx.inst.failLocked(node, user, reason, 0, false); err != nil {
		return 0, err
	}
	return mx.inst.run.failures[node], nil
}

// Timeout is timeoutLocked, returning the node's failure count.
func (mx *Mutable) Timeout(node string) (int, error) {
	if err := mx.inst.timeoutLocked(node); err != nil {
		return 0, err
	}
	return mx.inst.run.failures[node], nil
}

// Suppress withholds a failed node's work item (suppressLocked).
func (mx *Mutable) Suppress(node string, retryAt int64, pending bool) {
	v, _ := mx.inst.viewLocked()
	if n, ok := v.Node(node); ok {
		node = n.ID // the maps keep the schema's string
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
	if _, armed := inst.run.deadlines[node]; !armed {
		return fault.Tagf(fault.Conflict, "engine: timeout %s/%s: no armed deadline", inst.id, node)
	}
	inst.hist.Append(&history.Event{Kind: history.Timeout, Node: node, Reason: "deadline expired", Decision: -1})
	delete(inst.run.deadlines, node)
	if inst.run.escalated == nil {
		inst.run.escalated = make(map[string]bool)
	}
	inst.run.escalated[node] = true
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
	_, hasBackoff := inst.run.retryAt[node]
	if !hasBackoff && !inst.run.compPending[node] {
		return fault.Tagf(fault.Conflict, "engine: retry %s/%s: no suppressed retry pending", inst.id, node)
	}
	delete(inst.run.retryAt, node)
	delete(inst.run.compPending, node)
	return nil
}

// FailActivity records a process-level failure of a running activity
// (see failLocked).
func (e *Engine) FailActivity(instID, node, user, reason string, retryAt int64, pending bool) error {
	inst, ok := e.Instance(instID)
	if !ok {
		return fault.Tagf(fault.NotFound, "engine: fail: unknown instance %q", instID)
	}
	return inst.Mutate(func(*Mutable) error { return inst.failLocked(node, user, reason, retryAt, pending) })
}

// TimeoutActivity fires the armed deadline of a running activity (see
// timeoutLocked).
func (e *Engine) TimeoutActivity(instID, node string) error {
	inst, ok := e.Instance(instID)
	if !ok {
		return fault.Tagf(fault.NotFound, "engine: timeout: unknown instance %q", instID)
	}
	return inst.Mutate(func(*Mutable) error { return inst.timeoutLocked(node) })
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
	return e.due(now, state.Running, func(inst *Instance) map[string]int64 { return inst.run.deadlines })
}

// DueRetries lists the retry backoffs of activated nodes due at or before
// now (due).
func (e *Engine) DueRetries(now int64) []Expiry {
	return e.due(now, state.Activated, func(inst *Instance) map[string]int64 { return inst.run.retryAt })
}

// due scans all live instances for the entries of one exception timer at
// or before now whose node is in state st, ordered by instance key
// (CompareInstanceIDs), then node ID — deterministic, so a sweep issues
// the same command sequence regardless of map iteration, on a live engine
// and on its recovery.
func (e *Engine) due(now int64, st state.NodeState, timer func(*Instance) map[string]int64) []Expiry {
	var out []Expiry
	for _, inst := range e.Instances() {
		inst.mu.Lock()
		if !inst.done && !inst.suspended {
			for node, at := range timer(inst) {
				if at <= now && inst.run.marking.Node(node) == st {
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
			for node := range inst.run.compPending {
				if inst.run.marking.Node(node) == state.Activated {
					out = append(out, OpenException{Instance: inst.id, Node: node, Failures: inst.run.failures[node]})
				}
			}
			for node := range inst.run.escalated {
				if inst.run.marking.Node(node) == state.Running {
					out = append(out, OpenException{Instance: inst.id, Node: node, Timeout: true, Failures: inst.run.failures[node]})
				}
			}
		}
		inst.mu.Unlock()
	}
	// A node is activated or running, never in both maps: no two entries tie.
	slices.SortFunc(out, func(a, b OpenException) int {
		return cmp.Or(CompareInstanceIDs(a.Instance, b.Instance), strings.Compare(a.Node, b.Node))
	})
	return out
}
