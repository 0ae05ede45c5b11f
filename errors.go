package adept2

import (
	"context"
	"errors"
	"net/http"

	"adept2/internal/fault"
)

// Code classifies a command failure. Every error returned by the façade's
// mutation API (Submit, SubmitAsync, SubmitBatch, and the method wrappers
// over them) carries exactly one code; errors.Is against the Err*
// sentinels matches by code, so callers branch on the class without
// parsing messages.
type Code string

const (
	// CodeInternal covers unclassified failures: I/O errors, corruption,
	// bugs. Retrying without intervention is unlikely to help.
	CodeInternal Code = "internal"
	// CodeInvalid marks malformed or unsatisfiable commands (bad
	// arguments, missing mandatory inputs, unknown change operations).
	CodeInvalid Code = "invalid"
	// CodeNotFound marks commands naming unknown entities (instances,
	// schemas, nodes, process types, work items, users).
	CodeNotFound Code = "not_found"
	// CodeConflict marks commands contradicting current state (duplicate
	// IDs, a node not in the required state, resuming a running
	// instance).
	CodeConflict Code = "conflict"
	// CodeDenied marks authorization failures (a start or completion by a
	// user without the activity's role).
	CodeDenied Code = "denied"
	// CodeSuspended marks user operations refused because the instance is
	// suspended (Resume it first).
	CodeSuspended Code = "suspended"
	// CodeCompleted marks operations refused because the instance already
	// finished.
	CodeCompleted Code = "completed"
	// CodeNotCompliant marks change refusals by the ADEPT2 correctness
	// criterion: structural conflicts, violated state conditions, undo
	// past progress.
	CodeNotCompliant Code = "not_compliant"
	// CodeVersionSkew marks version-ordering violations: deploying a
	// stale schema version, opening a layout with a conflicting shard
	// count (reshard offline instead).
	CodeVersionSkew Code = "version_skew"
	// CodeWedged marks a stuck durability pipeline: a shard committer
	// with a sticky fsync failure or a persistently failing background
	// checkpoint (surfaced by Health and by receipts).
	CodeWedged Code = "wedged"
	// CodeUnrecoverable marks Open refusing to rebuild state from damaged
	// durability artifacts (truncated journals, compacted journals
	// without a bridging snapshot, dangling epochs).
	CodeUnrecoverable Code = "unrecoverable"
	// CodeCanceled marks a context cancellation. For Submit and
	// Receipt.Wait the command may still have been applied and journaled
	// — only the durability wait was abandoned.
	CodeCanceled Code = "canceled"
	// CodeFailed marks a process-level activity failure: the exception a
	// FailActivity command records, surfaced on Exception.Err so policies
	// and observers can branch with errors.Is(err, ErrFailed).
	CodeFailed Code = "failed"
	// CodeTimeout marks a deadline expiry: a running activity exceeded
	// its armed deadline and was escalated.
	CodeTimeout Code = "timeout"
)

// Error is the typed failure of a command: the class, the command that
// failed, and (for instance-scoped commands) the instance it targeted.
// Error renders the underlying message unchanged and unwraps to it, so
// message matching and errors.Is against deeper causes keep working;
// errors.Is against the Err* sentinels matches the Code.
type Error struct {
	// Code is the failure class.
	Code Code
	// Op names the command that failed (its CommandName), or the façade
	// entry point for non-command failures ("open", "health").
	Op string
	// Instance is the targeted instance ID, when the command had one.
	Instance string
	// Applied reports that the command's engine mutation DID happen
	// despite the error: journaling failed after the apply, or a
	// durability wait was abandoned/wedged. The in-memory state changed
	// while durability is in doubt — callers reconcile instead of
	// retrying blindly.
	Applied bool
	// Result carries the applied command's result when Applied (e.g. the
	// *MigrationReport of an Evolve), so the outcome of the mutation is
	// not lost with the error. Ignored by Is matching.
	Result any
	// Err is the underlying cause.
	Err error
}

// Error renders the underlying message (unchanged from pre-taxonomy
// releases); a bare sentinel renders its code.
func (e *Error) Error() string {
	if e.Err != nil {
		return e.Err.Error()
	}
	return "adept2: " + string(e.Code)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// Is matches another *Error treating its zero fields as wildcards, so
// errors.Is(err, ErrNotFound) matches any not-found failure while
// errors.Is(err, &Error{Code: CodeNotFound, Instance: "inst-000001"})
// narrows to one instance.
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	if !ok {
		return false
	}
	return (t.Code == "" || t.Code == e.Code) &&
		(t.Op == "" || t.Op == e.Op) &&
		(t.Instance == "" || t.Instance == e.Instance)
}

// Sentinels for errors.Is, one per Code.
var (
	ErrInternal      = &Error{Code: CodeInternal}
	ErrInvalid       = &Error{Code: CodeInvalid}
	ErrNotFound      = &Error{Code: CodeNotFound}
	ErrConflict      = &Error{Code: CodeConflict}
	ErrDenied        = &Error{Code: CodeDenied}
	ErrSuspended     = &Error{Code: CodeSuspended}
	ErrCompleted     = &Error{Code: CodeCompleted}
	ErrNotCompliant  = &Error{Code: CodeNotCompliant}
	ErrVersionSkew   = &Error{Code: CodeVersionSkew}
	ErrWedged        = &Error{Code: CodeWedged}
	ErrUnrecoverable = &Error{Code: CodeUnrecoverable}
	ErrCanceled      = &Error{Code: CodeCanceled}
	ErrFailed        = &Error{Code: CodeFailed}
	ErrTimeout       = &Error{Code: CodeTimeout}
)

// codeTable is the code table: one row per Code, in the order of the
// code label values (metrics, after "ok"). A row holds the fault kind the
// façade classifies as the code (wrapErr) and the HTTP status the
// networked command plane answers it with. CodeForHTTPStatus reads the
// first row of a status, so where codes share one the broader class comes
// first.
var codeTable = [...]struct {
	code   Code
	kind   fault.Kind
	status int
}{
	{CodeInternal, fault.Internal, http.StatusInternalServerError},
	{CodeInvalid, fault.Invalid, http.StatusBadRequest},
	{CodeNotFound, fault.NotFound, http.StatusNotFound},
	{CodeConflict, fault.Conflict, http.StatusConflict},
	{CodeDenied, fault.Denied, http.StatusForbidden},
	{CodeSuspended, fault.Suspended, http.StatusLocked},
	{CodeCompleted, fault.Completed, http.StatusGone},
	{CodeNotCompliant, fault.NotCompliant, http.StatusUnprocessableEntity},
	{CodeVersionSkew, fault.VersionSkew, http.StatusConflict},
	{CodeWedged, noKind, http.StatusServiceUnavailable},
	{CodeUnrecoverable, fault.Unrecoverable, http.StatusInternalServerError},
	{CodeCanceled, noKind, http.StatusRequestTimeout},
	{CodeFailed, fault.Failed, http.StatusConflict}, // activity state contradicts the request
	{CodeTimeout, fault.Timeout, http.StatusRequestTimeout},
}

// noKind is the kind of a code no fault kind classifies as: the façade
// assigns CodeWedged and CodeCanceled itself.
const noKind = ^fault.Kind(0)

// index returns c's row in codeTable; an unknown code reads as
// CodeInternal's.
func (c Code) index() int {
	for i := range codeTable {
		if codeTable[i].code == c {
			return i
		}
	}
	return 0
}

// HTTPStatus maps a taxonomy code onto the HTTP status the networked
// command plane answers with. The mapping is total: unknown codes fall
// back to 500 like CodeInternal.
func (c Code) HTTPStatus() int { return codeTable[c.index()].status }

// CodeForHTTPStatus is the client-side fallback mapping for responses
// whose error envelope was lost (proxies, panics): the best-effort code
// for a bare status. It inverts HTTPStatus where the inverse is unique
// and picks the broader class where it is not (409 → CodeConflict).
func CodeForHTTPStatus(status int) Code {
	for _, r := range codeTable {
		if r.status == status {
			return r.code
		}
	}
	return CodeInternal
}

// wrapErr classifies an internal error at the façade boundary. An error
// that already carries a taxonomy code passes through unchanged; context
// cancellations map to CodeCanceled; everything else takes the code of
// its fault kind (CodeInternal when untagged).
func wrapErr(op, instance string, err error) error {
	if err == nil {
		return nil
	}
	var e *Error
	if errors.As(err, &e) {
		return err
	}
	code, kind := CodeInternal, fault.KindOf(err)
	for _, r := range codeTable {
		if r.kind == kind {
			code = r.code
			break
		}
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		code = CodeCanceled
	}
	return &Error{Code: code, Op: op, Instance: instance, Err: err}
}
