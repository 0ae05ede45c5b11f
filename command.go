package adept2

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
	"unsafe"

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
// Submit, SubmitAsync, or SubmitBatch. One table, cmdTable, holds each
// command's row — its name, journal op, control/data classification and
// JSON codec — and every projection of the vocabulary reads that row: the
// live path, crash-recovery replay, the wire codec and the metric labels.
// The engine application is the command's run, the SAME routine on the
// live path and in replay, so a command type cannot drift between
// execution and recovery.
//
// Commands are defined by this package; foreign implementations are
// rejected with ErrInvalid.
type Command interface {
	// CommandName returns the name of the command's row: its metric
	// label, and its journal op for every command except Resume (journaled
	// as "suspend" with a resume flag, for wire compatibility with earlier
	// releases).
	CommandName() string
}

// command is the internal contract behind Command: the command's row and
// the single apply routine shared by the live path and recovery replay.
type command interface {
	Command
	// row returns the command's row of cmdTable, the same one for every
	// value of the type, so the submit path classifies, journals and
	// counts a command without a map lookup.
	row() *cmdRow
	// target returns the instance ID the command addresses, for error
	// reporting ("" for control commands and unrouted creates).
	target() string
	// run validates the command and applies it to the engine. It returns
	// the effect: the caller-visible result, the instance the journal
	// record routes on, and the args to journal under the row's op. run
	// never journals — Submit and replay decide that.
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
// duplicate), and a value handed to the journal as `any` cannot live on
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
	case *Suspend, *Resume:
		rec.suspend = suspendArgs{Instance: c.target(), Resume: c.row() == resumeCmd}
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
	if eff.args != nil || eff.stamp(c) {
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
	inst   string // routing instance ("" for a control record)
	args   any    // journal args (wire form); nil until finishEffect for stamped and encoded ones
	at     int64  // the time run stamped (StartActivity, CompleteActivity)

	stamped *stampedArgs // what args points into, if stamp built it
}

// codec is a row's pair of args decoders. decode is the reference,
// encoding/json throughout. plain, where the wire form has flat members,
// reads the plain shape of the same args (internal/jsonx) and is tried
// first: it refuses whatever it does not read exactly as decode would, so
// the two agree wherever both answer (FuzzDecodeAgainstJSON in
// internal/rpc). It decodes into the form's struct in into, zeroed first,
// or into a new one when into is nil. A string member naming something
// the System names holds decodes to the System's own string
// (System.heldName); any other string, and every one when names is nil,
// is a copy.
type codec struct {
	decode func(json.RawMessage) (command, error)
	plain  func(args []byte, into *wireStructs, names *System) (command, bool) // args have passed json.Valid
}

// decodeArgs decodes a row's args; valid says they are known to be JSON.
func (c *codec) decodeArgs(args []byte, valid bool, into *wireStructs, names *System) (command, error) {
	if c.plain != nil && (valid || json.Valid(args)) {
		if cmd, ok := c.plain(args, into, names); ok {
			return cmd, nil
		}
	}
	return c.decode(args)
}

// wireStructs is what a reusing WireDecoder decodes plain args into: one
// struct per flat form, the Suspend and Resume a suspend record is made
// into, and the map a completion's outputs are read into. A decode zeroes
// its form's struct before reading, so no member of one line survives
// into the next; the map is emptied.
type wireStructs struct {
	create    CreateInstance
	start     StartActivity
	complete  CompleteActivity
	fail      FailActivity
	timeout   TimeoutActivity
	retry     RetryActivity
	undo      Undo
	suspend   suspendArgs
	suspended Suspend
	resumed   Resume
	outputs   map[string]any
}

// outputsMap returns the map a completion's n outputs are read into: the
// structs' own, emptied, or a new one when into is nil. {} reads as an
// empty map, not nil, as the reference's does.
func (into *wireStructs) outputsMap(n int) map[string]any {
	if into == nil {
		return make(map[string]any, n)
	}
	if into.outputs == nil {
		into.outputs = make(map[string]any, n)
	}
	clear(into.outputs)
	return into.outputs
}

// heldName returns the System's own copy of the name b spells, or a copy
// of b when s is nil or holds none (engine.HeldName).
func (s *System) heldName(kind engine.NameKind, b []byte) string {
	if s != nil {
		if held, ok := s.eng.HeldName(kind, b); ok {
			return held
		}
	}
	return string(b)
}

// cmdRow is one command's row of cmdTable.
type cmdRow struct {
	name string // CommandName, and the op label of the command's metrics
	op   string // the journal op of its records, and of its wire lines
	// control is set for a command that journals to the control log
	// (shard 0 in a sharded layout) and needs the exclusive barrier there:
	// it mutates state every instance may depend on.
	control bool
	codec       // decodes the args of an op record (journalOps)
	index   int // the row's place in cmdTable: its index in the metric arrays
}

// decodeStruct decodes the args of a command whose wire form is the
// command struct itself and has members only encoding/json reads and
// writes (a user, a schema).
func decodeStruct[T any, P interface {
	*T
	command
}](raw json.RawMessage) (command, error) {
	v := new(T)
	if err := json.Unmarshal(raw, v); err != nil {
		return nil, err
	}
	return P(v), nil
}

// wireForm is the field table of a flat wire form W, read once from W's
// json tags. Both directions run on it: the plain decoder of the form's
// codec, and appendJSON, behind the form's AppendJSON, which the journal
// line and the command line both append through — so a member cannot be
// written under one key and read under another.
type wireForm[W any] struct {
	fields []wireField
	keys   []string // the json key of each field
	slot   uintptr  // W's place in wireStructs
}

// wireField is one member of a flat wire form.
type wireField struct {
	name      string  // the json key quoted, with its colon
	offset    uintptr // the member's place in the form
	kind      fieldKind
	held      engine.NameKind // what a string member names
	omitEmpty bool
}

// heldNames maps the keys of the string members that name what the System
// holds to what they name. A create's explicit ID names an instance that
// does not exist yet, and a failure's reason nothing.
var heldNames = map[string]engine.NameKind{
	"instance": engine.NameInstance,
	"type":     engine.NameType,
	"node":     engine.NameSymbol,
	"user":     engine.NameSymbol,
}

// fieldKind is what a member holds: one of the plain kinds, which the
// plain decoder reads in place, a completion's decisions, which only the
// reference decodes, or its outputs, read in place while they are plain
// strings.
type fieldKind uint8

const (
	fieldString fieldKind = iota
	fieldInt
	fieldInt64
	fieldBool
	fieldIntPtr  // a completion's XOR decision
	fieldBoolPtr // a completion's loop decision
	fieldOutputs // a completion's outputs, map[string]any
)

// maxFields bounds a form's members, so that the plain decoder splits args
// into an array on its stack.
const maxFields = 8

// The flat wire forms, one table each.
var (
	createForm   = newWireForm[CreateInstance]()
	startForm    = newWireForm[StartActivity]()
	completeForm = newWireForm[CompleteActivity]()
	failForm     = newWireForm[FailActivity]()
	timeoutForm  = newWireForm[TimeoutActivity]()
	retryForm    = newWireForm[RetryActivity]()
	suspendForm  = newWireForm[suspendArgs]()
	undoForm     = newWireForm[Undo]()
)

func newWireForm[W any]() *wireForm[W] {
	typ := reflect.TypeFor[W]()
	f := new(wireForm[W])
	for i := 0; i < typ.NumField(); i++ {
		sf := typ.Field(i)
		if !sf.IsExported() {
			continue // no member of the wire form
		}
		var kind fieldKind
		switch t := sf.Type; {
		case t.Kind() == reflect.String:
			kind = fieldString
		case t.Kind() == reflect.Int:
			kind = fieldInt
		case t.Kind() == reflect.Int64:
			kind = fieldInt64
		case t.Kind() == reflect.Bool:
			kind = fieldBool
		case t == reflect.TypeFor[*int]():
			kind = fieldIntPtr
		case t == reflect.TypeFor[*bool]():
			kind = fieldBoolPtr
		case t == reflect.TypeFor[map[string]any]():
			kind = fieldOutputs
		default:
			panic(fmt.Sprintf("adept2: %v.%s is not a flat member", typ, sf.Name))
		}
		key, opts, _ := strings.Cut(sf.Tag.Get("json"), ",")
		if key == "" || key == "-" || (opts != "" && opts != "omitempty") {
			panic(fmt.Sprintf("adept2: %v.%s has a json tag the field table does not read", typ, sf.Name))
		}
		f.fields = append(f.fields, wireField{name: string(jsonx.AppendString(nil, key)) + ":",
			offset: sf.Offset, kind: kind, held: heldNames[key], omitEmpty: opts == "omitempty"})
		f.keys = append(f.keys, key)
	}
	if len(f.fields) > maxFields {
		panic(fmt.Sprintf("adept2: %v has more than %d members", typ, maxFields))
	}
	slots := reflect.TypeFor[wireStructs]()
	for i := 0; i < slots.NumField(); i++ {
		if sf := slots.Field(i); sf.Type == typ {
			f.slot = sf.Offset
			return f
		}
	}
	panic(fmt.Sprintf("adept2: wireStructs has no %v", typ))
}

// codec is the form's codec; finish makes the command of a decoded W,
// in into when it is not nil. The plain decoder reads the string, integer
// and boolean members and outputs whose values are all plain strings; args
// that carry any other member — a decision, a number or a nested value
// among the outputs — are the reference's.
func (f *wireForm[W]) codec(finish func(*W, *wireStructs) command) codec {
	return codec{
		decode: func(raw json.RawMessage) (command, error) {
			v := new(W)
			if err := json.Unmarshal(raw, v); err != nil {
				return nil, err
			}
			return finish(v, nil), nil
		},
		plain: func(args []byte, into *wireStructs, names *System) (command, bool) {
			var buf [maxFields][]byte
			vals := buf[:len(f.fields)]
			if !jsonx.Members(args, f.keys, vals) {
				return nil, false
			}
			// Nothing is allocated or overwritten until every member has been
			// read once, so args refused here cost the reference nothing
			// extra and leave into as it was.
			for k, val := range vals {
				if val != nil && !f.fields[k].read(val, nil, nil, nil) {
					return nil, false
				}
			}
			var v *W
			if into == nil {
				v = new(W)
			} else {
				var zero W
				v = (*W)(unsafe.Add(unsafe.Pointer(into), f.slot))
				*v = zero
			}
			for k, val := range vals {
				if val != nil {
					f.fields[k].read(val, unsafe.Pointer(v), into, names)
				}
			}
			return finish(v, into), true
		},
	}
}

// read reads a raw member value as the member's plain form and, if form
// is not nil, stores it at the member's place in form — a name the System
// names holds as its own string, outputs in into's map (see codec); it
// reports whether val is plain.
func (fd *wireField) read(val []byte, form unsafe.Pointer, into *wireStructs, names *System) bool {
	var p unsafe.Pointer
	if form != nil {
		p = unsafe.Add(form, fd.offset)
	}
	switch fd.kind {
	case fieldString:
		s, ok := jsonx.Str(val)
		if ok && p != nil {
			*(*string)(p) = names.heldName(fd.held, s)
		}
		return ok
	case fieldBool:
		b, ok := jsonx.Bool(val)
		if ok && p != nil {
			*(*bool)(p) = b
		}
		return ok
	case fieldInt:
		n, ok := jsonx.Int(val)
		ok = ok && int64(int(n)) == n
		if ok && p != nil {
			*(*int)(p) = int(n)
		}
		return ok
	case fieldInt64:
		n, ok := jsonx.Int(val)
		if ok && p != nil {
			*(*int64)(p) = n
		}
		return ok
	case fieldOutputs:
		var keys, strs [maxOutputs][]byte
		n, ok := jsonx.Strings(val, keys[:], strs[:])
		if ok && p != nil {
			m := into.outputsMap(n)
			for i := range n {
				m[string(keys[i])] = string(strs[i])
			}
			*(*map[string]any)(p) = m
		}
		return ok
	}
	return false
}

// maxOutputs bounds the outputs the plain decoder reads, so that it splits
// them into arrays on its stack; a completion with more is the reference's.
const maxOutputs = 8

// appendJSON appends v as encoding/json writes it: members in field order,
// an omitempty member left out when it is empty. It refuses with
// ErrInvalid what a JSON line cannot carry as it stands: a string that is
// not UTF-8, which encoding/json would write as U+FFFD, and an output
// encoding/json refuses (NaN, ±Inf). On error the slice is nil.
func (f *wireForm[W]) appendJSON(b []byte, v *W) ([]byte, error) {
	if v == nil {
		return append(b, "null"...), nil
	}
	sep := byte('{')
	for i := range f.fields {
		fd := &f.fields[i]
		p := unsafe.Add(unsafe.Pointer(v), fd.offset)
		if fd.omitEmpty && fd.empty(p) {
			continue
		}
		b = append(append(b, sep), fd.name...)
		sep = ','
		var err error
		if b, err = fd.appendValue(b, p); err != nil {
			return nil, err
		}
	}
	if sep == '{' {
		b = append(b, '{')
	}
	return append(b, '}'), nil
}

// empty reports whether the member at p is what omitempty leaves out.
func (fd *wireField) empty(p unsafe.Pointer) bool {
	switch fd.kind {
	case fieldString:
		return *(*string)(p) == ""
	case fieldInt:
		return *(*int)(p) == 0
	case fieldInt64:
		return *(*int64)(p) == 0
	case fieldBool:
		return !*(*bool)(p)
	case fieldIntPtr:
		return *(**int)(p) == nil
	case fieldBoolPtr:
		return *(**bool)(p) == nil
	}
	return len(*(*map[string]any)(p)) == 0
}

// appendValue appends the member at p.
func (fd *wireField) appendValue(b []byte, p unsafe.Pointer) ([]byte, error) {
	switch fd.kind {
	case fieldString:
		return appendCarried(b, *(*string)(p))
	case fieldInt:
		return strconv.AppendInt(b, int64(*(*int)(p)), 10), nil
	case fieldInt64:
		return strconv.AppendInt(b, *(*int64)(p), 10), nil
	case fieldBool:
		return strconv.AppendBool(b, *(*bool)(p)), nil
	case fieldIntPtr:
		if n := *(**int)(p); n != nil {
			return strconv.AppendInt(b, int64(*n), 10), nil
		}
	case fieldBoolPtr:
		if t := *(**bool)(p); t != nil {
			return strconv.AppendBool(b, *t), nil
		}
	case fieldOutputs:
		if m := *(*map[string]any)(p); m != nil {
			return appendOutputs(b, m)
		}
	}
	return append(b, "null"...), nil
}

// appendOutputs appends a completion's outputs as encoding/json writes the
// map, keys in byte order, refusing what appendJSON refuses.
func appendOutputs(b []byte, m map[string]any) ([]byte, error) {
	var buf [maxOutputs]string
	keys := buf[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendCarried(b, k); err != nil {
			return nil, err
		}
		b = append(b, ':')
		if s, ok := m[k].(string); ok {
			b, err = appendCarried(b, s)
		} else if b, err = jsonx.AppendValue(b, m[k]); err != nil {
			err = fault.Tag(fault.Invalid, err)
		}
		if err != nil {
			return nil, err
		}
	}
	return append(b, '}'), nil
}

// appendCarried appends s as a JSON string, refusing one that is not UTF-8.
func appendCarried(b []byte, s string) ([]byte, error) {
	if !utf8.ValidString(s) {
		return nil, fault.Tagf(fault.Invalid, "adept2: %q is not UTF-8, which a journal line cannot carry", s)
	}
	return jsonx.AppendString(b, s), nil
}

// structCommand is a form's finish where the form is the command struct.
func structCommand[T any, P interface {
	*T
	command
}](v *T, _ *wireStructs) command {
	return P(v)
}

// suspendCommand is the suspend form's finish: a Suspend or a Resume, in
// into when it is not nil.
func suspendCommand(a *suspendArgs, into *wireStructs) command {
	switch {
	case a.Resume && into != nil:
		into.resumed = Resume{Instance: a.Instance}
		return &into.resumed
	case a.Resume:
		return &Resume{Instance: a.Instance}
	case into != nil:
		into.suspended = Suspend{Instance: a.Instance}
		return &into.suspended
	}
	return &Suspend{Instance: a.Instance}
}

// The command table: one row per command, in the order of the op label
// values (metrics). A command's type reaches its row through its row
// method; replay and the wire decoder through journalOps. Resume journals
// under the suspend op, whose records the suspend row's codec decodes.
var (
	userCmd     = &cmdRow{name: "user", op: "user", control: true, codec: codec{decode: decodeStruct[AddUser]}}
	deployCmd   = &cmdRow{name: "deploy", op: "deploy", control: true, codec: codec{decode: decodeStruct[Deploy]}}
	evolveCmd   = &cmdRow{name: "evolve", op: "evolve", control: true, codec: codec{decode: decodeEvolve}}
	createCmd   = &cmdRow{name: "create", op: "create", codec: createForm.codec(structCommand[CreateInstance])}
	startCmd    = &cmdRow{name: "start", op: "start", codec: startForm.codec(structCommand[StartActivity])}
	failCmd     = &cmdRow{name: "fail", op: "fail", codec: failForm.codec(structCommand[FailActivity])}
	timeoutCmd  = &cmdRow{name: "timeout", op: "timeout", codec: timeoutForm.codec(structCommand[TimeoutActivity])}
	retryCmd    = &cmdRow{name: "retry", op: "retry", codec: retryForm.codec(structCommand[RetryActivity])}
	completeCmd = &cmdRow{name: "complete", op: "complete", codec: completeForm.codec(structCommand[CompleteActivity])}
	adhocCmd    = &cmdRow{name: "adhoc", op: "adhoc", codec: codec{decode: decodeAdHoc}}
	suspendCmd  = &cmdRow{name: "suspend", op: "suspend", codec: suspendForm.codec(suspendCommand)}
	undoCmd     = &cmdRow{name: "undo", op: "undo", codec: undoForm.codec(structCommand[Undo])}
	resumeCmd   = &cmdRow{name: "resume", op: "suspend", codec: suspendCmd.codec}

	cmdTable = [...]*cmdRow{userCmd, deployCmd, evolveCmd, createCmd, startCmd, failCmd,
		timeoutCmd, retryCmd, completeCmd, adhocCmd, suspendCmd, undoCmd, resumeCmd}
)

// journalOps maps a journal op to the first row that journals under it,
// whose codec decodes the op's records (replay, DecodeWireCommand and
// WireDecoder).
var journalOps = map[string]*cmdRow{}

func init() {
	for i, r := range cmdTable {
		r.index = i
		if journalOps[r.op] == nil {
			journalOps[r.op] = r
		}
	}
}

// AppendJSON appends the create's journal args (see AppendCommandArgs).
func (c *CreateInstance) AppendJSON(b []byte) ([]byte, error) { return createForm.appendJSON(b, c) }

// AppendJSON appends the start's journal args (see AppendCommandArgs).
func (c *StartActivity) AppendJSON(b []byte) ([]byte, error) { return startForm.appendJSON(b, c) }

// AppendJSON appends the completion's journal args (see AppendCommandArgs).
func (c *CompleteActivity) AppendJSON(b []byte) ([]byte, error) {
	return completeForm.appendJSON(b, c)
}

// AppendJSON appends the failure's journal args (see AppendCommandArgs).
func (c *FailActivity) AppendJSON(b []byte) ([]byte, error) { return failForm.appendJSON(b, c) }

// AppendJSON appends the timeout's journal args (see AppendCommandArgs).
func (c *TimeoutActivity) AppendJSON(b []byte) ([]byte, error) { return timeoutForm.appendJSON(b, c) }

// AppendJSON appends the retry's journal args (see AppendCommandArgs).
func (c *RetryActivity) AppendJSON(b []byte) ([]byte, error) { return retryForm.appendJSON(b, c) }

// AppendJSON appends the undo's journal args (see AppendCommandArgs).
func (c *Undo) AppendJSON(b []byte) ([]byte, error) { return undoForm.appendJSON(b, c) }

// AppendJSON appends a suspension's or a resumption's journal args.
func (a *suspendArgs) AppendJSON(b []byte) ([]byte, error) { return suspendForm.appendJSON(b, a) }

// isControlOp classifies journal ops that belong to the shard-0 control
// log: commands that change shared state every instance may depend on
// (schemas, users) or mutate instances across shards (evolutions).
func isControlOp(op string) bool {
	r, ok := journalOps[op]
	return ok && r.control
}

// decodeCommand resolves a journal record to its typed command.
func decodeCommand(op string, args json.RawMessage) (command, error) {
	r, ok := journalOps[op]
	if !ok {
		return nil, fmt.Errorf("adept2: unknown journal op %q", op)
	}
	return r.decodeArgs(args, false, nil, nil)
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

func (*AddUser) CommandName() string { return userCmd.name }
func (*AddUser) row() *cmdRow        { return userCmd }
func (*AddUser) target() string      { return "" }

func (c *AddUser) run(s *System) (effect, error) {
	if err := s.eng.Org().AddUser(c.User); err != nil {
		return effect{}, err
	}
	return effect{args: c}, nil
}

// Deploy verifies and registers a schema version.
type Deploy struct {
	Schema *Schema `json:"schema"`
}

func (*Deploy) CommandName() string { return deployCmd.name }
func (*Deploy) row() *cmdRow        { return deployCmd }
func (*Deploy) target() string      { return "" }

func (c *Deploy) run(s *System) (effect, error) {
	if c.Schema == nil {
		return effect{}, fault.Tagf(fault.Invalid, "adept2: deploy: nil schema")
	}
	if err := s.eng.Deploy(c.Schema); err != nil {
		return effect{}, err
	}
	return effect{args: c}, nil
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

func (*CreateInstance) CommandName() string { return createCmd.name }
func (*CreateInstance) row() *cmdRow        { return createCmd }
func (c *CreateInstance) target() string    { return c.ID }

func (c *CreateInstance) run(s *System) (effect, error) {
	inst, err := s.eng.CreateInstanceID(c.ID, c.TypeName, c.Version)
	if err != nil {
		return effect{}, err
	}
	return effect{result: inst, inst: inst.ID()}, nil
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

func (*StartActivity) CommandName() string { return startCmd.name }
func (*StartActivity) row() *cmdRow        { return startCmd }
func (c *StartActivity) target() string    { return c.Instance }

func (c *StartActivity) run(s *System) (effect, error) {
	at := c.At
	if at == 0 {
		at = s.now()
	}
	if err := s.eng.StartActivityAt(c.Instance, c.Node, c.User, at); err != nil {
		return effect{}, err
	}
	return effect{inst: c.Instance, at: at}, nil
}

// FailActivity reports the failure of a running activity: the attempt is
// undone (the node reverts to activated) and purged from the logical
// history, and the System's ExceptionPolicy reacts in the same command. A
// submitter sets the first four members; the rest are the record's
// (live): RetryAt ends a retry's backoff, Reaction names the reaction
// applied ("" for none), and Pending, which only journals from before a
// reaction rode this record carry, withholds the item until a retry.
type FailActivity struct {
	Instance string `json:"instance"`
	Node     string `json:"node"`
	User     string `json:"user,omitempty"`
	Reason   string `json:"reason,omitempty"`
	RetryAt  int64  `json:"retryAt,omitempty"`
	Pending  bool   `json:"pending,omitempty"`
	Reaction string `json:"reaction,omitempty"`

	live bool
}

func (*FailActivity) CommandName() string { return failCmd.name }
func (*FailActivity) row() *cmdRow        { return failCmd }
func (c *FailActivity) target() string    { return c.Instance }

func (c *FailActivity) run(s *System) (effect, error) {
	x := Exception{Instance: c.Instance, Node: c.Node, Kind: ActivityFailed, Reason: c.Reason}
	r, err := s.except(x, c.live, c.Reaction, reaction{retryAt: c.RetryAt, pending: c.Pending},
		func(mx *engine.Mutable) (int, error) { return mx.Fail(c.Node, c.User, c.Reason) })
	if c.live {
		c.Reaction, c.RetryAt = reactionName(r.action), r.retryAt
	}
	return effect{inst: c.Instance, args: c}, err
}

// TimeoutActivity fires the armed deadline of a running activity: a
// Timeout event is appended to the history, the work item escalates to
// the node's escalation role, and the policy reacts as to a failure. The
// deadline sweep submits these; At records the sweep time for the
// journal's audit trail, and Reaction is the record's, as a failure's.
type TimeoutActivity struct {
	Instance string `json:"instance"`
	Node     string `json:"node"`
	At       int64  `json:"at,omitempty"`
	Reaction string `json:"reaction,omitempty"`

	live bool
}

func (*TimeoutActivity) CommandName() string { return timeoutCmd.name }
func (*TimeoutActivity) row() *cmdRow        { return timeoutCmd }
func (c *TimeoutActivity) target() string    { return c.Instance }

func (c *TimeoutActivity) run(s *System) (effect, error) {
	x := Exception{Instance: c.Instance, Node: c.Node, Kind: DeadlineExpired}
	r, err := s.except(x, c.live, c.Reaction, reaction{},
		func(mx *engine.Mutable) (int, error) { return mx.Timeout(c.Node) })
	if c.live {
		c.Reaction = reactionName(r.action)
	}
	return effect{inst: c.Instance, args: c}, err
}

// live is the live path's one hook into a failure or a timeout (stage
// calls it before run): a copy of c, marked live, without the members the
// System decides, so a submitter's — in process or on a remote line —
// reach neither the instance nor the record, and run writes the reaction
// it applied into the copy. Replay runs the decoded record, unmarked.
func live(c command) command {
	switch c := c.(type) {
	case *FailActivity:
		return &FailActivity{Instance: c.Instance, Node: c.Node, User: c.User, Reason: c.Reason, live: true}
	case *TimeoutActivity:
		return &TimeoutActivity{Instance: c.Instance, Node: c.Node, At: c.At, live: true}
	}
	return c
}

// RetryActivity re-offers the suppressed work item of a failed activity
// (the compensating command of a Retry reaction, submitted by the sweep
// once the backoff elapses).
type RetryActivity struct {
	Instance string `json:"instance"`
	Node     string `json:"node"`
	At       int64  `json:"at,omitempty"`
}

func (*RetryActivity) CommandName() string { return retryCmd.name }
func (*RetryActivity) row() *cmdRow        { return retryCmd }
func (c *RetryActivity) target() string    { return c.Instance }

func (c *RetryActivity) run(s *System) (effect, error) {
	if err := s.eng.RetryActivity(c.Instance, c.Node); err != nil {
		return effect{}, err
	}
	return effect{inst: c.Instance, args: c}, nil
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

func (*CompleteActivity) CommandName() string { return completeCmd.name }
func (*CompleteActivity) row() *cmdRow        { return completeCmd }
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
	return effect{inst: c.Instance, at: at}, nil
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

func (*AdHoc) CommandName() string { return adhocCmd.name }
func (*AdHoc) row() *cmdRow        { return adhocCmd }
func (c *AdHoc) target() string    { return c.Instance }

func (c *AdHoc) run(s *System) (effect, error) {
	inst, ok := s.eng.Instance(c.Instance)
	if !ok {
		return effect{}, fault.Tagf(fault.NotFound, "adept2: unknown instance %q", c.Instance)
	}
	if err := change.ApplyAdHoc(inst, c.Ops...); err != nil {
		return effect{}, err
	}
	return effect{inst: c.Instance}, nil
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

func (*Suspend) CommandName() string { return suspendCmd.name }
func (*Suspend) row() *cmdRow        { return suspendCmd }
func (c *Suspend) target() string    { return c.Instance }

func (c *Suspend) run(s *System) (effect, error) {
	if err := s.eng.Suspend(c.Instance); err != nil {
		return effect{}, err
	}
	return effect{inst: c.Instance}, nil
}

// Resume re-enables user operations on a suspended instance.
type Resume struct {
	Instance string `json:"instance"`
}

func (*Resume) CommandName() string { return resumeCmd.name }
func (*Resume) row() *cmdRow        { return resumeCmd }
func (c *Resume) target() string    { return c.Instance }

func (c *Resume) run(s *System) (effect, error) {
	if err := s.eng.Resume(c.Instance); err != nil {
		return effect{}, err
	}
	return effect{inst: c.Instance}, nil
}

// Undo removes the most recent ad-hoc change of an instance (or, with
// All, its entire bias), provided it has not progressed into the changed
// region.
type Undo struct {
	Instance string `json:"instance"`
	All      bool   `json:"all,omitempty"`
}

func (*Undo) CommandName() string { return undoCmd.name }
func (*Undo) row() *cmdRow        { return undoCmd }
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
	return effect{inst: c.Instance, args: c}, nil
}

// evolveArgs is the wire form of a schema evolution. A record or line of
// an earlier tree may carry "workers" and "adapt" members, a worker count
// and an adaptation mode; they decode and are ignored, as a snapshot's
// "strategy" is: a migration runs GOMAXPROCS workers and adapts one way.
type evolveArgs struct {
	TypeName string          `json:"type"`
	Ops      json.RawMessage `json:"ops"`
	Mode     uint8           `json:"mode,omitempty"`
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

func (*Evolve) CommandName() string { return evolveCmd.name }
func (*Evolve) row() *cmdRow        { return evolveCmd }
func (*Evolve) target() string      { return "" }

func (c *Evolve) run(s *System) (effect, error) {
	report, err := s.mgr.Evolve(c.TypeName, c.Ops, c.Options)
	if err != nil {
		return effect{}, err
	}
	return effect{result: report}, nil
}

func (c *Evolve) encodeArgs() (any, error) {
	blob, err := change.MarshalOps(c.Ops)
	if err != nil {
		return nil, err
	}
	return evolveArgs{
		TypeName: c.TypeName,
		Ops:      blob,
		Mode:     uint8(c.Options.Mode),
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
	return &Evolve{TypeName: a.TypeName, Ops: ops, Options: evolution.Options{Mode: evolution.CheckMode(a.Mode)}}, nil
}
