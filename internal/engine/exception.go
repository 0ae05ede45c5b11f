package engine

import (
	"sort"

	"adept2/internal/fault"
	"adept2/internal/history"
	"adept2/internal/state"
)

// This file implements the process-level exception transitions of the
// ADEPT2 engine: activity failure (the attempt is undone and purged from
// the logical history), deadline expiry (the activity keeps running but
// its work item escalates), and retry (the suppressed work item of a
// failed activity is re-offered). Each transition is driven by its own
// journaled command, so replay rebuilds identical exception state.

// failLocked records that a running node's execution failed. The attempt
// is undone: a Failed event is appended to the physical history, the
// node's execution record is purged from the fast compliance index
// (mirroring Reduce, which drops the Started/Failed pair), and the node
// reverts to activated. retryAt > 0 suppresses the re-offer until that
// time (retry backoff); pending suppresses it until a policy
// compensation lands. Both ride the journaled fail command, so the
// suppression window replays identically.
func (inst *Instance) failLocked(node, user, reason string, retryAt int64, pending bool) error {
	if inst.done {
		return fault.Tagf(fault.Completed, "engine: fail %s/%s: instance is completed", inst.id, node)
	}
	if inst.suspended {
		return fault.Tagf(fault.Suspended, "engine: fail %s/%s: instance is suspended", inst.id, node)
	}
	v, _ := inst.viewLocked()
	if n, ok := v.Node(node); ok {
		node = n.ID // as in startLocked; a node the view lacks is not running
	}
	if got := inst.marking.Node(node); got != state.Running {
		return fault.Tagf(fault.Conflict, "engine: fail %s/%s: node is %s, not running", inst.id, node, got)
	}
	inst.hist.Append(&history.Event{Kind: history.Failed, Node: node, User: user, Reason: reason, Decision: -1})
	inst.stats.OnFail(node)
	inst.marking.SetNode(node, state.Activated)
	if inst.failures == nil {
		inst.failures = make(map[string]int)
	}
	inst.failures[node]++
	delete(inst.deadlines, node)
	delete(inst.escalated, node)
	if retryAt != 0 {
		if inst.retryAt == nil {
			inst.retryAt = make(map[string]int64)
		}
		inst.retryAt[node] = retryAt
	}
	if pending {
		if inst.compPending == nil {
			inst.compPending = make(map[string]bool)
		}
		inst.compPending[node] = true
	}
	// The failed assignee's in-progress item is stale either way; the
	// sync below re-offers to the role's candidates unless suppressed.
	inst.eng.wl.Withdraw(inst.id, node)
	inst.syncWorklistLocked()
	return nil
}

// timeoutLocked records that a running node exceeded its armed deadline:
// a Timeout event is appended, the deadline disarms (it fires exactly
// once), and the work item escalates — it is withdrawn from the original
// assignee and re-offered to the node's escalation role (its own role
// when none is configured).
func (inst *Instance) timeoutLocked(node string) error {
	if inst.done {
		return fault.Tagf(fault.Completed, "engine: timeout %s/%s: instance is completed", inst.id, node)
	}
	if inst.suspended {
		return fault.Tagf(fault.Suspended, "engine: timeout %s/%s: instance is suspended", inst.id, node)
	}
	v, _ := inst.viewLocked()
	n, ok := v.Node(node)
	if !ok {
		return fault.Tagf(fault.NotFound, "engine: timeout %s/%s: no such node", inst.id, node)
	}
	node = n.ID // as in startLocked
	if got := inst.marking.Node(node); got != state.Running {
		return fault.Tagf(fault.Conflict, "engine: timeout %s/%s: node is %s, not running", inst.id, node, got)
	}
	if _, armed := inst.deadlines[node]; !armed {
		return fault.Tagf(fault.Conflict, "engine: timeout %s/%s: no armed deadline", inst.id, node)
	}
	inst.hist.Append(&history.Event{Kind: history.Timeout, Node: node, Reason: "deadline expired", Decision: -1})
	delete(inst.deadlines, node)
	if inst.escalated == nil {
		inst.escalated = make(map[string]bool)
	}
	inst.escalated[node] = true
	role := n.Escalation
	if role == "" {
		role = n.Role
	}
	inst.eng.wl.Escalate(inst.id, node, role, inst.eng.org.UsersInRole(role))
	return nil
}

// retryLocked lifts the suppression of a failed node's work item: the
// retry backoff and any pending-compensation mark are cleared and the
// worklist sync re-offers the item.
func (inst *Instance) retryLocked(node string) error {
	if inst.done {
		return fault.Tagf(fault.Completed, "engine: retry %s/%s: instance is completed", inst.id, node)
	}
	if inst.suspended {
		return fault.Tagf(fault.Suspended, "engine: retry %s/%s: instance is suspended", inst.id, node)
	}
	if got := inst.marking.Node(node); got != state.Activated {
		return fault.Tagf(fault.Conflict, "engine: retry %s/%s: node is %s, not activated", inst.id, node, got)
	}
	_, hasBackoff := inst.retryAt[node]
	if !hasBackoff && !inst.compPending[node] {
		return fault.Tagf(fault.Conflict, "engine: retry %s/%s: no suppressed retry pending", inst.id, node)
	}
	delete(inst.retryAt, node)
	delete(inst.compPending, node)
	inst.syncWorklistLocked()
	return nil
}

// FailActivity records a process-level failure of a running activity
// (see failLocked).
func (e *Engine) FailActivity(instID, node, user, reason string, retryAt int64, pending bool) error {
	if err := checkUTF8("fail", "user", user); err != nil {
		return err
	}
	if err := checkUTF8("fail", "reason", reason); err != nil {
		return err
	}
	inst, ok := e.Instance(instID)
	if !ok {
		return fault.Tagf(fault.NotFound, "engine: fail: unknown instance %q", instID)
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.failLocked(node, user, reason, retryAt, pending)
}

// TimeoutActivity fires the armed deadline of a running activity (see
// timeoutLocked).
func (e *Engine) TimeoutActivity(instID, node string) error {
	inst, ok := e.Instance(instID)
	if !ok {
		return fault.Tagf(fault.NotFound, "engine: timeout: unknown instance %q", instID)
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.timeoutLocked(node)
}

// RetryActivity re-offers the suppressed work item of a failed activity
// (see retryLocked).
func (e *Engine) RetryActivity(instID, node string) error {
	inst, ok := e.Instance(instID)
	if !ok {
		return fault.Tagf(fault.NotFound, "engine: retry: unknown instance %q", instID)
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.retryLocked(node)
}

// Expiry identifies one due exception-timer entry: an armed deadline
// that expired, or a retry backoff that became due.
type Expiry struct {
	Instance string
	Node     string
	// At is the armed deadline (or retry due time) in unix nanos.
	At int64
}

// ExpiredDeadlines scans all live instances for armed deadlines at or
// before now. The result is ordered by instance creation order, then
// node ID — deterministic, so a sweep loop issues the same command
// sequence regardless of map iteration.
func (e *Engine) ExpiredDeadlines(now int64) []Expiry {
	var out []Expiry
	for _, inst := range e.Instances() {
		inst.mu.Lock()
		if !inst.done && !inst.suspended {
			start := len(out)
			for node, dl := range inst.deadlines {
				if dl <= now && inst.marking.Node(node) == state.Running {
					out = append(out, Expiry{Instance: inst.id, Node: node, At: dl})
				}
			}
			sortExpiries(out[start:])
		}
		inst.mu.Unlock()
	}
	return out
}

// DueRetries scans all live instances for retry backoffs due at or
// before now (same ordering guarantees as ExpiredDeadlines).
func (e *Engine) DueRetries(now int64) []Expiry {
	var out []Expiry
	for _, inst := range e.Instances() {
		inst.mu.Lock()
		if !inst.done && !inst.suspended {
			start := len(out)
			for node, at := range inst.retryAt {
				if at <= now && inst.marking.Node(node) == state.Activated {
					out = append(out, Expiry{Instance: inst.id, Node: node, At: at})
				}
			}
			sortExpiries(out[start:])
		}
		inst.mu.Unlock()
	}
	return out
}

func sortExpiries(s []Expiry) {
	sort.Slice(s, func(i, j int) bool { return s[i].Node < s[j].Node })
}

// OpenException describes an exception that has been detected but not
// yet compensated: a failed node awaiting its policy compensation, or a
// running node whose deadline fired (escalated) and which a policy may
// still want to act on.
type OpenException struct {
	Instance string
	Node     string
	// Timeout distinguishes deadline expiries from activity failures.
	Timeout bool
	// Failures is the node's consecutive-failure count.
	Failures int
}

// OpenExceptions scans all live instances for open exceptions, ordered
// by instance creation order then node ID. The sweep re-runs the
// exception policy over them, which heals compensations lost to a crash
// between a fail record and its follow-up command.
func (e *Engine) OpenExceptions() []OpenException {
	var out []OpenException
	for _, inst := range e.Instances() {
		inst.mu.Lock()
		if !inst.done && !inst.suspended {
			start := len(out)
			for node := range inst.compPending {
				if inst.marking.Node(node) == state.Activated {
					out = append(out, OpenException{Instance: inst.id, Node: node, Failures: inst.failures[node]})
				}
			}
			for node := range inst.escalated {
				if inst.marking.Node(node) == state.Running {
					out = append(out, OpenException{Instance: inst.id, Node: node, Timeout: true, Failures: inst.failures[node]})
				}
			}
			sort.Slice(out[start:], func(i, j int) bool {
				a, b := out[start+i], out[start+j]
				if a.Node != b.Node {
					return a.Node < b.Node
				}
				return !a.Timeout && b.Timeout
			})
		}
		inst.mu.Unlock()
	}
	return out
}
