// Package fault classifies errors across the internal layers without
// disturbing their messages: an error site tags its error with a Kind
// (not-found, conflict, denied, …) and the facade maps the kind onto the
// public adept2.Error taxonomy. Tagging is transparent — Error() renders
// exactly the wrapped message, errors.Is/As keep working through Unwrap —
// so existing message-matching callers and tests are unaffected.
package fault

import (
	"errors"
	"fmt"
)

// Kind is the machine-readable class of a failure.
type Kind uint8

const (
	// Internal is the default for untagged errors (I/O, corruption, bugs).
	Internal Kind = iota
	// Invalid marks malformed or unsatisfiable requests (bad command
	// arguments, missing mandatory data, unknown change operations).
	Invalid
	// NotFound marks lookups of unknown entities (instances, schemas,
	// nodes, work items, process types).
	NotFound
	// Conflict marks requests that contradict current state (duplicate
	// IDs, wrong node state, resuming a running instance).
	Conflict
	// Denied marks authorization failures (a start or completion by a
	// user without the activity's role).
	Denied
	// Suspended marks operations refused because the instance is
	// suspended.
	Suspended
	// Completed marks operations refused because the instance already
	// finished.
	Completed
	// NotCompliant marks change/migration refusals by the correctness
	// criterion (structural conflicts, state conditions, undo past
	// progress).
	NotCompliant
	// VersionSkew marks version-ordering violations (deploying a stale
	// schema version, opening a layout with a conflicting shard count).
	VersionSkew
	// Unrecoverable marks durability-layer refusals to rebuild state
	// (truncated journals, compacted journals without a bridging
	// snapshot, dangling epochs, shard-count mismatches in the data).
	Unrecoverable
	// Failed marks process-level activity failures (a FailActivity
	// command's recorded reason surfacing as an exception).
	Failed
	// Timeout marks deadline expiries: a running activity exceeded its
	// armed deadline.
	Timeout
)

// tagged attaches a Kind to an error. It renders and unwraps
// transparently.
type tagged struct {
	err  error
	kind Kind
}

func (t *tagged) Error() string { return t.err.Error() }
func (t *tagged) Unwrap() error { return t.err }

// Tag attaches a kind to an existing error (nil stays nil).
func Tag(kind Kind, err error) error {
	if err == nil {
		return nil
	}
	return &tagged{err: err, kind: kind}
}

// Tagf is fmt.Errorf with a kind attached; %w works as usual.
func Tagf(kind Kind, format string, args ...any) error {
	return &tagged{err: fmt.Errorf(format, args...), kind: kind}
}

// KindOf returns the outermost explicit kind on the error chain, or
// Internal when the error is untagged (or nil).
func KindOf(err error) Kind {
	var t *tagged
	if errors.As(err, &t) {
		return t.kind
	}
	return Internal
}
