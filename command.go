package adept2

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"

	"adept2/internal/change"
	"adept2/internal/engine"
	"adept2/internal/evolution"
	"adept2/internal/fault"
	"adept2/internal/jsonx"
	"adept2/internal/rollback"
)

// Command is one typed, journal-able state mutation of a System. Every
// mutation — instance execution, ad-hoc change, schema evolution, org and
// deployment changes — is a value implementing Command, submitted through
// Submit, SubmitAsync, or SubmitBatch (System.Fail submits a FailActivity
// its exception policy completed). One registry owns each command's
// journal name, JSON codec, control/data classification, and engine
// application, and the SAME table drives both the live path and
// crash-recovery replay, so a command type cannot drift between execution
// and recovery.
//
// Commands are defined by this package; foreign implementations are
// rejected with ErrInvalid.
type Command interface {
	// CommandName returns the command's registry name. It doubles as the
	// journal op for every command except Resume (journaled as "suspend"
	// with a resume flag, for wire compatibility with earlier releases).
	CommandName() string
}

// command is the internal contract behind Command: classification and the
// single apply routine shared by the live path and recovery replay.
type command interface {
	Command
	// control reports whether the command journals to the control log
	// (shard 0 in a sharded layout) and needs the exclusive barrier
	// there: it mutates state every instance may depend on.
	control() bool
	// target returns the instance ID the command addresses, for error
	// reporting ("" for control commands and unrouted creates).
	target() string
	// opIndex returns the command's position in the per-op metric
	// arrays (see metrics.go) — a compile-time constant per type, so
	// the hot path indexes without a map lookup. Resume has its own
	// index even though it journals as "suspend".
	opIndex() int
	// run validates the command and applies it to the engine. It returns
	// the effect: the caller-visible result, the instance the journal
	// record routes on, and the wire op/args to journal. run never
	// journals — Submit and replay decide that.
	run(s *System) (effect, error)
}

// argsEncoder is implemented by commands whose wire form takes encoding
// work beyond the command struct itself (change-op serialization). It
// runs on the live path only — run leaves effect.args nil and replay
// never re-encodes what it just decoded.
type argsEncoder interface {
	encodeArgs() (any, error)
}

// stampedArgs holds the journal form of the commands whose record is a
// small struct other than the submitted one: it carries a value the live
// path assigned, or has the wire shape Suspend and Resume share. The
// caller's command is never written to (one &CreateInstance{} may be
// submitted twice, and a stamped ID would make the second submit a
// duplicate), and a value handed to the encoder as `any` cannot live on
// the stack — so the forms are recycled through stampedPool.
type stampedArgs struct {
	create   CreateInstance
	start    StartActivity
	complete CompleteActivity
	suspend  suspendArgs
}

var stampedPool = sync.Pool{New: func() any { return new(stampedArgs) }}

// stamp builds the record args of such a command in a pooled stampedArgs,
// which eff owns until release, and reports whether c is one. Like
// argsEncoder it runs on the live path only.
func (eff *effect) stamp(c command) bool {
	rec := stampedPool.Get().(*stampedArgs)
	switch c := c.(type) {
	case *CreateInstance:
		// The record always carries the assigned ID so sharded replay
		// reproduces it under any shard interleaving (pre-PR4 records
		// without one rely on the total journal order instead).
		rec.create = *c
		rec.create.ID = eff.inst
		eff.args = &rec.create
	case *StartActivity:
		// The record always carries the stamped time so replay re-arms
		// deadlines deterministically (pre-deadline records with At 0 are
		// harmless: their schemas model no deadlines).
		rec.start = *c
		rec.start.At = eff.at
		eff.args = &rec.start
	case *CompleteActivity:
		// The record carries the stamped time so replay reproduces event
		// timestamps (pre-timestamp records decode At 0 and stay unstamped).
		rec.complete = *c
		rec.complete.At = eff.at
		eff.args = &rec.complete
	case *Suspend:
		rec.suspend = suspendArgs{Instance: c.Instance}
		eff.args = &rec.suspend
	case *Resume:
		rec.suspend = suspendArgs{Instance: c.Instance, Resume: true}
		eff.args = &rec.suspend
	default:
		stampedPool.Put(rec)
		return false
	}
	eff.stamped = rec
	return true
}

// release recycles the effect's pooled record form. The journal encodes a
// record before its append returns, so nothing references the form then.
func (eff *effect) release() {
	if eff.stamped != nil {
		*eff.stamped = stampedArgs{} // drop the caller's strings and outputs
		stampedPool.Put(eff.stamped)
		eff.stamped = nil
	}
}

// finishEffect fills a nil effect.args with the command's stamped record
// form or from its encoder (the live path's pre-journal step).
func finishEffect(c command, eff *effect) error {
	if eff.args != nil || eff.op == "" || eff.stamp(c) {
		return nil
	}
	enc, ok := c.(argsEncoder)
	if !ok {
		return fmt.Errorf("adept2: command %s produced no journal args", c.CommandName())
	}
	args, err := enc.encodeArgs()
	if err != nil {
		return err
	}
	eff.args = args
	return nil
}

// effect is what applying a command produced and what must be journaled.
type effect struct {
	result any    // returned to the submitter (nil for most commands)
	inst   string // routing instance ("" = control record)
	op     string // journal op
	args   any    // journal args (wire form); nil until finishEffect for stamped and encoded ones
	at     int64  // the time run stamped (StartActivity, CompleteActivity)

	stamped *stampedArgs // what args points into, if stamp built it
}

// codec is a row's pair of args decoders. decode is the reference,
// encoding/json throughout. plain, where the wire form has flat members,
// reads the plain shape of the same args (internal/jsonx) at the cost of
// the command and its strings, and is tried first: it refuses whatever it
// does not read exactly as decode would, so the two agree wherever both
// answer (FuzzDecodeAgainstJSON in internal/rpc).
type codec struct {
	decode func(json.RawMessage) (command, error)
	plain  func(args []byte) (command, bool) // args have passed json.Valid
}

// decodeArgs decodes a row's args; valid says they are known to be JSON.
func (c *codec) decodeArgs(args []byte, valid bool) (command, error) {
	if c.plain != nil && (valid || json.Valid(args)) {
		if cmd, ok := c.plain(args); ok {
			return cmd, nil
		}
	}
	return c.decode(args)
}

// cmdSpec is one registry row.
type cmdSpec struct {
	op      string
	control bool
	codec
}

// registry maps journal op names to their spec. It is the single source
// of truth consumed by System.apply (replay), Submit (classification),
// and the sharded WAL's control/data routing.
var registry = map[string]*cmdSpec{}

func register(op string, control bool, c codec) {
	registry[op] = &cmdSpec{op: op, control: control, codec: c}
}

// structCodec is the codec of a command whose wire form is the command
// struct itself.
func structCodec[T any, P interface {
	*T
	command
}]() codec {
	return wireCodec(func(v *T) command { return P(v) })
}

// wireCodec is the codec of the wire form W, whose json tags are the one
// field table both decoders read; finish makes the command of a decoded W.
// The plain decoder knows W's string, integer and boolean members. Any
// other member — a completion's outputs — is one it does not know, and
// args that carry it are the reference's.
func wireCodec[W any](finish func(*W) command) codec {
	c := codec{decode: func(raw json.RawMessage) (command, error) {
		v := new(W)
		if err := json.Unmarshal(raw, v); err != nil {
			return nil, err
		}
		return finish(v), nil
	}}
	var keys []string
	var fields []int
	var kinds []reflect.Kind
	typ := reflect.TypeFor[W]()
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.String, reflect.Int, reflect.Int64, reflect.Bool:
			key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			keys, fields, kinds = append(keys, key), append(fields, i), append(kinds, f.Type.Kind())
		}
	}
	const maxPlain = 8
	if len(keys) > maxPlain {
		panic(fmt.Sprintf("adept2: %v has more than %d flat members", typ, maxPlain))
	}
	if keys == nil {
		return c
	}
	c.plain = func(args []byte) (command, bool) {
		var buf [maxPlain][]byte
		vals := buf[:len(keys)]
		if !jsonx.Members(args, keys, vals) {
			return nil, false
		}
		// Nothing is allocated until every member has been read once, so
		// args refused here cost the reference nothing extra.
		for k, val := range vals {
			if val != nil && !readPlain(val, kinds[k], reflect.Value{}) {
				return nil, false
			}
		}
		v := new(W)
		dst := reflect.ValueOf(v).Elem()
		for k, val := range vals {
			if val != nil {
				readPlain(val, kinds[k], dst.Field(fields[k]))
			}
		}
		return finish(v), true
	}
	return c
}

// readPlain reads a raw member value as the plain form of kind and
// stores it in dst, if dst is a field; it reports whether val is plain.
func readPlain(val []byte, kind reflect.Kind, dst reflect.Value) bool {
	switch kind {
	case reflect.String:
		s, ok := jsonx.Str(val)
		if ok && dst.IsValid() {
			dst.SetString(string(s))
		}
		return ok
	case reflect.Bool:
		b, ok := jsonx.Bool(val)
		if ok && dst.IsValid() {
			dst.SetBool(b)
		}
		return ok
	}
	n, ok := jsonx.Int(val)
	if ok && dst.IsValid() {
		dst.SetInt(n)
	}
	return ok && (kind == reflect.Int64 || int64(int(n)) == n)
}

func init() {
	register("user", true, structCodec[AddUser]())
	register("deploy", true, structCodec[Deploy]())
	register("evolve", true, codec{decode: decodeEvolve})
	register("create", false, structCodec[CreateInstance]())
	register("start", false, structCodec[StartActivity]())
	register("fail", false, structCodec[FailActivity]())
	register("timeout", false, structCodec[TimeoutActivity]())
	register("retry", false, structCodec[RetryActivity]())
	register("complete", false, structCodec[CompleteActivity]())
	register("adhoc", false, codec{decode: decodeAdHoc})
	register("suspend", false, wireCodec(func(a *suspendArgs) command {
		if a.Resume {
			return &Resume{Instance: a.Instance}
		}
		return &Suspend{Instance: a.Instance}
	}))
	register("undo", false, structCodec[Undo]())
}

// isControlOp classifies journal ops that belong to the shard-0 control
// log: commands that change shared state every instance may depend on
// (schemas, users) or mutate instances across shards (evolutions).
func isControlOp(op string) bool {
	spec, ok := registry[op]
	return ok && spec.control
}

// decodeCommand resolves a journal record to its typed command.
func decodeCommand(op string, args json.RawMessage) (command, error) {
	spec, ok := registry[op]
	if !ok {
		return nil, fmt.Errorf("adept2: unknown journal op %q", op)
	}
	return spec.decodeArgs(args, false)
}

// apply replays one journaled command (crash recovery): the same decode +
// run the live path uses, minus the journaling.
func (s *System) apply(op string, args json.RawMessage) error {
	cmd, err := decodeCommand(op, args)
	if err != nil {
		return err
	}
	_, err = cmd.run(s)
	return err
}

// --- typed commands ---

// AddUser registers a user in the organizational model (journaled, unlike
// direct Org() mutation).
type AddUser struct {
	User *User `json:"user"`
}

func (*AddUser) CommandName() string { return "user" }
func (*AddUser) control() bool       { return true }
func (*AddUser) opIndex() int        { return opUser }
func (*AddUser) target() string      { return "" }

func (c *AddUser) run(s *System) (effect, error) {
	if err := s.eng.Org().AddUser(c.User); err != nil {
		return effect{}, err
	}
	return effect{op: "user", args: c}, nil
}

// Deploy verifies and registers a schema version.
type Deploy struct {
	Schema *Schema `json:"schema"`
}

func (*Deploy) CommandName() string { return "deploy" }
func (*Deploy) control() bool       { return true }
func (*Deploy) opIndex() int        { return opDeploy }
func (*Deploy) target() string      { return "" }

func (c *Deploy) run(s *System) (effect, error) {
	if c.Schema == nil {
		return effect{}, fault.Tagf(fault.Invalid, "adept2: deploy: nil schema")
	}
	if err := s.eng.Deploy(c.Schema); err != nil {
		return effect{}, err
	}
	return effect{op: "deploy", args: c}, nil
}

// CreateInstance instantiates a process type. Version 0 selects the
// latest deployed version. ID is normally left empty — the engine assigns
// one, and Submit returns the *Instance — but an explicit ID is honored
// (recovery replay uses this to reproduce the original assignment).
type CreateInstance struct {
	TypeName string `json:"type"`
	Version  int    `json:"version"`
	ID       string `json:"id,omitempty"`
}

func (*CreateInstance) CommandName() string { return "create" }
func (*CreateInstance) control() bool       { return false }
func (*CreateInstance) opIndex() int        { return opCreate }
func (c *CreateInstance) target() string    { return c.ID }

func (c *CreateInstance) run(s *System) (effect, error) {
	inst, err := s.eng.CreateInstanceID(c.ID, c.TypeName, c.Version)
	if err != nil {
		return effect{}, err
	}
	return effect{result: inst, inst: inst.ID(), op: "create"}, nil
}

// StartActivity starts an activated activity on behalf of a user. At is
// the start time in unix nanos: it arms the node's relative deadline (if
// one is modeled) and is normally left zero — the live path stamps the
// system clock onto the journal record, so recovery re-arms the
// identical absolute deadline instead of re-reading a wall clock.
type StartActivity struct {
	Instance string `json:"instance"`
	Node     string `json:"node"`
	User     string `json:"user,omitempty"`
	At       int64  `json:"at,omitempty"`
}

func (*StartActivity) CommandName() string { return "start" }
func (*StartActivity) control() bool       { return false }
func (*StartActivity) opIndex() int        { return opStart }
func (c *StartActivity) target() string    { return c.Instance }

func (c *StartActivity) run(s *System) (effect, error) {
	at := c.At
	if at == 0 {
		at = s.now()
	}
	if err := s.eng.StartActivityAt(c.Instance, c.Node, c.User, at); err != nil {
		return effect{}, err
	}
	return effect{inst: c.Instance, op: "start", at: at}, nil
}

// FailActivity records a process-level failure of a running activity:
// the attempt is undone (the node reverts to activated) and purged from
// the logical history, so compliance judges the instance as if the
// attempt never ran. RetryAt > 0 suppresses the work-item re-offer until
// that time (retry backoff); Pending suppresses it until a policy
// compensation lands. System.Fail fills both from the exception policy's
// reaction; direct submitters may leave them zero for an immediate
// re-offer.
type FailActivity struct {
	Instance string `json:"instance"`
	Node     string `json:"node"`
	User     string `json:"user,omitempty"`
	Reason   string `json:"reason,omitempty"`
	RetryAt  int64  `json:"retryAt,omitempty"`
	Pending  bool   `json:"pending,omitempty"`
}

func (*FailActivity) CommandName() string { return "fail" }
func (*FailActivity) control() bool       { return false }
func (*FailActivity) opIndex() int        { return opFail }
func (c *FailActivity) target() string    { return c.Instance }

func (c *FailActivity) run(s *System) (effect, error) {
	if err := s.eng.FailActivity(c.Instance, c.Node, c.User, c.Reason, c.RetryAt, c.Pending); err != nil {
		return effect{}, err
	}
	return effect{inst: c.Instance, op: "fail", args: c}, nil
}

// TimeoutActivity fires the armed deadline of a running activity: a
// Timeout event is appended to the history and the work item escalates
// to the node's escalation role. The deadline sweep submits these; At
// records the sweep time for the journal's audit trail.
type TimeoutActivity struct {
	Instance string `json:"instance"`
	Node     string `json:"node"`
	At       int64  `json:"at,omitempty"`
}

func (*TimeoutActivity) CommandName() string { return "timeout" }
func (*TimeoutActivity) control() bool       { return false }
func (*TimeoutActivity) opIndex() int        { return opTimeout }
func (c *TimeoutActivity) target() string    { return c.Instance }

func (c *TimeoutActivity) run(s *System) (effect, error) {
	if err := s.eng.TimeoutActivity(c.Instance, c.Node); err != nil {
		return effect{}, err
	}
	return effect{inst: c.Instance, op: "timeout", args: c}, nil
}

// RetryActivity re-offers the suppressed work item of a failed activity
// (the compensating command of a Retry reaction, submitted by the sweep
// once the backoff elapses).
type RetryActivity struct {
	Instance string `json:"instance"`
	Node     string `json:"node"`
	At       int64  `json:"at,omitempty"`
}

func (*RetryActivity) CommandName() string { return "retry" }
func (*RetryActivity) control() bool       { return false }
func (*RetryActivity) opIndex() int        { return opRetry }
func (c *RetryActivity) target() string    { return c.Instance }

func (c *RetryActivity) run(s *System) (effect, error) {
	if err := s.eng.RetryActivity(c.Instance, c.Node); err != nil {
		return effect{}, err
	}
	return effect{inst: c.Instance, op: "retry", args: c}, nil
}

// CompleteActivity completes a node (starting it first when merely
// activated), writes its outputs, and advances the instance. Decision
// supplies an explicit XOR routing decision; Again an explicit loop
// iteration decision. At is the completion time in unix nanos, normally
// left zero: the live path stamps the system clock onto the journal
// record (the same pattern as StartActivity.At), so the Completed
// history event's timestamp — the activity-duration substrate the
// mining layer consumes — replays bit-exactly.
type CompleteActivity struct {
	Instance string         `json:"instance"`
	Node     string         `json:"node"`
	User     string         `json:"user,omitempty"`
	Outputs  map[string]any `json:"outputs,omitempty"`
	Decision *int           `json:"decision,omitempty"`
	Again    *bool          `json:"again,omitempty"`
	At       int64          `json:"at,omitempty"`
}

func (*CompleteActivity) CommandName() string { return "complete" }
func (*CompleteActivity) control() bool       { return false }
func (*CompleteActivity) opIndex() int        { return opComplete }
func (c *CompleteActivity) target() string    { return c.Instance }

func (c *CompleteActivity) run(s *System) (effect, error) {
	at := c.At
	if at == 0 {
		at = s.now()
	}
	var buf [3]engine.CompleteOption
	opts := append(buf[:0], engine.WithCompletedAt(at))
	if c.Decision != nil {
		opts = append(opts, engine.WithDecision(*c.Decision))
	}
	if c.Again != nil {
		opts = append(opts, engine.WithLoopAgain(*c.Again))
	}
	if err := s.eng.CompleteActivity(c.Instance, c.Node, c.User, c.Outputs, opts...); err != nil {
		return effect{}, err
	}
	return effect{inst: c.Instance, op: "complete", at: at}, nil
}

// adHocArgs is the wire form of an ad-hoc change (ops serialized through
// the change codec).
type adHocArgs struct {
	Instance string          `json:"instance"`
	Ops      json.RawMessage `json:"ops"`
}

// AdHoc applies an ad-hoc change to a single running instance (the
// paper's instance-level change dimension).
type AdHoc struct {
	Instance string
	Ops      []Operation
}

func (*AdHoc) CommandName() string { return "adhoc" }
func (*AdHoc) control() bool       { return false }
func (*AdHoc) opIndex() int        { return opAdHoc }
func (c *AdHoc) target() string    { return c.Instance }

func (c *AdHoc) run(s *System) (effect, error) {
	inst, ok := s.eng.Instance(c.Instance)
	if !ok {
		return effect{}, fault.Tagf(fault.NotFound, "adept2: unknown instance %q", c.Instance)
	}
	if err := change.ApplyAdHoc(inst, c.Ops...); err != nil {
		return effect{}, err
	}
	return effect{inst: c.Instance, op: "adhoc"}, nil
}

func (c *AdHoc) encodeArgs() (any, error) {
	blob, err := change.MarshalOps(c.Ops)
	if err != nil {
		return nil, err
	}
	return adHocArgs{Instance: c.Instance, Ops: blob}, nil
}

func decodeAdHoc(raw json.RawMessage) (command, error) {
	var a adHocArgs
	if err := json.Unmarshal(raw, &a); err != nil {
		return nil, err
	}
	ops, err := change.UnmarshalOps(a.Ops)
	if err != nil {
		return nil, err
	}
	return &AdHoc{Instance: a.Instance, Ops: ops}, nil
}

// suspendArgs is the shared wire form of Suspend and Resume (one journal
// op, byte-compatible with earlier releases).
type suspendArgs struct {
	Instance string `json:"instance"`
	Resume   bool   `json:"resume,omitempty"`
}

// Suspend blocks user operations on an instance; ad-hoc changes and
// migration stay possible.
type Suspend struct {
	Instance string `json:"instance"`
}

func (*Suspend) CommandName() string { return "suspend" }
func (*Suspend) control() bool       { return false }
func (*Suspend) opIndex() int        { return opSuspend }
func (c *Suspend) target() string    { return c.Instance }

func (c *Suspend) run(s *System) (effect, error) {
	if err := s.eng.Suspend(c.Instance); err != nil {
		return effect{}, err
	}
	return effect{inst: c.Instance, op: "suspend"}, nil
}

// Resume re-enables user operations on a suspended instance.
type Resume struct {
	Instance string `json:"instance"`
}

func (*Resume) CommandName() string { return "resume" }
func (*Resume) control() bool       { return false }
func (*Resume) opIndex() int        { return opResume }
func (c *Resume) target() string    { return c.Instance }

func (c *Resume) run(s *System) (effect, error) {
	if err := s.eng.Resume(c.Instance); err != nil {
		return effect{}, err
	}
	return effect{inst: c.Instance, op: "suspend"}, nil
}

// Undo removes the most recent ad-hoc change of an instance (or, with
// All, its entire bias), provided it has not progressed into the changed
// region.
type Undo struct {
	Instance string `json:"instance"`
	All      bool   `json:"all,omitempty"`
}

func (*Undo) CommandName() string { return "undo" }
func (*Undo) control() bool       { return false }
func (*Undo) opIndex() int        { return opUndo }
func (c *Undo) target() string    { return c.Instance }

func (c *Undo) run(s *System) (effect, error) {
	inst, ok := s.eng.Instance(c.Instance)
	if !ok {
		return effect{}, fault.Tagf(fault.NotFound, "adept2: unknown instance %q", c.Instance)
	}
	var err error
	if c.All {
		err = rollback.UndoAll(inst)
	} else {
		err = rollback.UndoLast(inst)
	}
	if err != nil {
		return effect{}, err
	}
	return effect{inst: c.Instance, op: "undo", args: c}, nil
}

// evolveArgs is the wire form of a schema evolution.
type evolveArgs struct {
	TypeName string          `json:"type"`
	Ops      json.RawMessage `json:"ops"`
	Workers  int             `json:"workers,omitempty"`
	Mode     uint8           `json:"mode,omitempty"`
	Adapt    uint8           `json:"adapt,omitempty"`
}

// Evolve performs a schema evolution of the process type and migrates all
// compliant instances on the fly (the paper's type-level change
// dimension). Submit returns the *MigrationReport classifying every
// instance.
type Evolve struct {
	TypeName string
	Ops      []Operation
	Options  EvolveOptions
}

func (*Evolve) CommandName() string { return "evolve" }
func (*Evolve) control() bool       { return true }
func (*Evolve) opIndex() int        { return opEvolve }
func (*Evolve) target() string      { return "" }

func (c *Evolve) run(s *System) (effect, error) {
	report, err := s.mgr.Evolve(c.TypeName, c.Ops, c.Options)
	if err != nil {
		return effect{}, err
	}
	return effect{result: report, op: "evolve"}, nil
}

func (c *Evolve) encodeArgs() (any, error) {
	blob, err := change.MarshalOps(c.Ops)
	if err != nil {
		return nil, err
	}
	return evolveArgs{
		TypeName: c.TypeName,
		Ops:      blob,
		Workers:  c.Options.Workers,
		Mode:     uint8(c.Options.Mode),
		Adapt:    uint8(c.Options.Adapt),
	}, nil
}

func decodeEvolve(raw json.RawMessage) (command, error) {
	var a evolveArgs
	if err := json.Unmarshal(raw, &a); err != nil {
		return nil, err
	}
	ops, err := change.UnmarshalOps(a.Ops)
	if err != nil {
		return nil, err
	}
	return &Evolve{TypeName: a.TypeName, Ops: ops, Options: evolution.Options{
		Workers: a.Workers,
		Mode:    evolution.CheckMode(a.Mode),
		Adapt:   evolution.AdaptMode(a.Adapt),
	}}, nil
}
