package rpc

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"adept2"
	"adept2/internal/jsonx"
)

// Envelope is one command in wire form: the registry op name and its
// JSON args, exactly as adept2.EncodeCommand produces them and as the
// journal records them. The registry is the single codec — a command
// that round-trips through an Envelope is byte-identical to its journal
// record.
type Envelope struct {
	Op   string          `json:"op"`
	Args json.RawMessage `json:"args"`
}

// commandRequest is one request line of the command plane: a line of a
// command stream, or the unary POST /v1/commands body. A command line is
// an Envelope plus the submission mode ("sync" — the default — blocks
// until the record is fsync-covered; "async" returns as soon as the
// mutation is applied and the record staged, handing back a receipt
// token). A frame is a batch of envelopes and nothing else: it has no op,
// args or mode of its own, and no element carries a mode or a batch.
type commandRequest struct {
	Envelope
	Mode  string           `json:"mode,omitempty"`
	Batch []commandRequest `json:"batch,omitempty"`
}

// request is one decoded request line: a command with its op name and
// mode, or a frame's commands (batch not nil, and no cmd).
type request struct {
	cmd      adept2.Command
	op, mode string
	batch    []adept2.Command
}

// decodeCommandLine decodes one request line, the unary POST /v1/commands
// body or one line of the stream, into its command, or a frame into its
// commands. It is the plane's network-facing decoder: every failure is
// ErrInvalid, a frame decodes whole or not at all, and nothing is left
// behind for the next line.
//
// A line that is valid JSON and whose envelope is plain (cutEnvelope) is
// read in one pass: dec decodes the args where they lie in the line, a
// flat command from its field table, with the names its System holds. A
// plain frame is read the same way, by frames (decodeBatch). Any other
// line is decodeCommandLineJSON's, which is also what says why a bad line
// is bad.
func decodeCommandLine(dec, frames *adept2.WireDecoder, line []byte) (request, error) {
	if json.Valid(line) {
		if op, args, mode, plain := cutEnvelope(line); plain {
			cmd, name, err := dec.Decode(op, args)
			return request{cmd: cmd, op: name, mode: mode}, err
		}
		if batch, plain := decodeBatch(frames, line); plain {
			return request{batch: batch}, nil
		}
	}
	return decodeCommandLineJSON(line)
}

var (
	envelopeKeys = [...]string{"op", "args", "mode"}
	// plainModes maps the raw mode member to the mode: absent, or one of
	// the two strings the protocol has.
	plainModes = map[string]string{"": "", `"sync"`: "sync", `"async"`: "async"}
)

// cutEnvelope is the one envelope reader, for a command line and a frame's
// element alike: it cuts data, which json.Valid has accepted, into the op
// name's bytes, the args span and the mode, all in place. It reports not
// plain unless the envelope's members are op, args and mode spelled so,
// each at most once (internal/jsonx), op a string without escapes, args
// an object and mode absent or one of the protocol's two.
func cutEnvelope(data []byte) (op, args []byte, mode string, plain bool) {
	var vals [len(envelopeKeys)][]byte
	if !jsonx.Members(data, envelopeKeys[:], vals[:]) {
		return nil, nil, "", false
	}
	op, plain = jsonx.Str(vals[0])
	mode, known := plainModes[string(vals[2])]
	args = vals[1]
	return op, args, mode, plain && known && len(args) > 0 && args[0] == '{'
}

var batchKeys = [...]string{"batch"}

// decodeBatch reads a plain frame, which json.Valid has accepted: one
// member, "batch", spelled so and there once, an array whose every
// element is an envelope cutEnvelope reads, without a mode, and whose
// args decode. Each element is decoded as a command line is, by dec,
// which must not reuse its structs: a frame holds all its commands at
// once. It reports not plain for any other line, which then goes to
// encoding/json whole.
func decodeBatch(dec *adept2.WireDecoder, line []byte) ([]adept2.Command, bool) {
	var vals [len(batchKeys)][]byte
	n := 0
	count := func([]byte) bool { n++; return true }
	if !jsonx.Members(line, batchKeys[:], vals[:]) || vals[0] == nil || !jsonx.Array(vals[0], count) {
		return nil, false
	}
	cmds := make([]adept2.Command, 0, n)
	plain := jsonx.Array(vals[0], func(elem []byte) bool {
		op, args, mode, ok := cutEnvelope(elem)
		if !ok || mode != "" {
			return false
		}
		cmd, _, err := dec.Decode(op, args)
		cmds = append(cmds, cmd)
		return err == nil
	})
	return cmds, plain
}

// decodeCommandLineJSON is decodeCommandLine by encoding/json alone: the
// reference the one-pass reader is held to (FuzzDecodeAgainstJSON) and
// the decoder of every line that reader declines. json.Unmarshal refuses
// anything after the one object, so a frame with trailing data runs
// nothing.
func decodeCommandLineJSON(line []byte) (request, error) {
	var req commandRequest
	if err := json.Unmarshal(line, &req); err != nil {
		return request{}, decodeErr("command envelope", err)
	}
	if req.Batch == nil {
		switch req.Mode {
		case "", "sync", "async":
		default:
			return request{}, decodeErr("command envelope", fmt.Errorf("mode %q is neither sync nor async", req.Mode))
		}
		cmd, err := adept2.DecodeWireCommand(req.Op, req.Args)
		return request{cmd: cmd, op: req.Op, mode: req.Mode}, err
	}
	if req.Op != "" || req.Args != nil || req.Mode != "" {
		return request{}, decodeErr("batch frame", errors.New("a frame carries no op, args or mode"))
	}
	cmds := make([]adept2.Command, len(req.Batch))
	for i, env := range req.Batch {
		if env.Mode != "" || env.Batch != nil {
			return request{}, decodeErr(fmt.Sprintf("batch command %d", i), errors.New("a frame's command carries no mode or batch"))
		}
		cmd, err := adept2.DecodeWireCommand(env.Op, env.Args)
		if err != nil {
			return request{}, decodeErr(fmt.Sprintf("batch command %d", i), err)
		}
		cmds[i] = cmd
	}
	return request{batch: cmds}, nil
}

// SubmitResult answers a command submission. Shard and Seq are the
// receipt token: the journal position the command's record received.
// Durable reports whether that position was already fsync-covered when
// the response was written — true for sync mode, usually false for
// async, where the client resolves the token against the watermark
// stream (a receipt (shard, seq) is durable exactly when the shard's
// streamed watermark reaches seq).
type SubmitResult struct {
	Op      string         `json:"op"`
	Shard   int            `json:"shard"`
	Seq     int            `json:"seq"`
	Durable bool           `json:"durable"`
	Result  *ResultSummary `json:"result,omitempty"`
}

// replyLine is one line of a command stream's reply body: the
// SubmitResult of the command in the same position of the request body,
// or that command's error envelope.
type replyLine struct {
	SubmitResult
	Error *WireError `json:"error,omitempty"`
}

// ResultSummary is a command's typed result projected onto the wire
// (nil for commands without one).
type ResultSummary struct {
	Instance *InstanceSummary `json:"instance,omitempty"`
	Report   *ReportSummary   `json:"report,omitempty"`
}

// BatchResponse answers a frame, on a stream or as the unary reply: one
// ResultSummary per applied command (the applied prefix on error — its
// journal records are durable even when a later command failed) and the
// in-band error envelope of the first failure, if any. The unary form
// answers 200 whenever the frame was dispatched, because partial results
// matter.
type BatchResponse struct {
	Results []*ResultSummary `json:"results"`
	Error   *WireError       `json:"error,omitempty"`
}

// WireError is the error envelope every non-2xx response carries under
// an "error" key: the taxonomy code, the op/instance context, whether
// the mutation was applied despite the error, and the flattened
// message. Clients rehydrate it into an *adept2.Error so errors.Is
// works across the network hop.
type WireError struct {
	Code     string `json:"code"`
	Op       string `json:"op,omitempty"`
	Instance string `json:"instance,omitempty"`
	Applied  bool   `json:"applied,omitempty"`
	Message  string `json:"message"`
}

// errorBody is the envelope wrapper of every error response.
type errorBody struct {
	Error *WireError `json:"error"`
}

// toWireError projects an error onto the envelope and its HTTP status.
func toWireError(err error) (*WireError, int) {
	var ae *adept2.Error
	if errors.As(err, &ae) {
		return &WireError{
			Code:     string(ae.Code),
			Op:       ae.Op,
			Instance: ae.Instance,
			Applied:  ae.Applied,
			Message:  err.Error(),
		}, ae.Code.HTTPStatus()
	}
	return &WireError{Code: string(adept2.CodeInternal), Message: err.Error()},
		adept2.CodeInternal.HTTPStatus()
}

// Err rehydrates the envelope into the taxonomy error the in-process
// API would have returned: errors.Is(err, adept2.ErrNotFound) (and
// every other sentinel) holds on the client exactly when it held on
// the server.
func (we *WireError) Err() error {
	return &adept2.Error{
		Code:     adept2.Code(we.Code),
		Op:       we.Op,
		Instance: we.Instance,
		Applied:  we.Applied,
		Err:      errors.New(we.Message),
	}
}

// WatermarkEvent is one line of the GET /v1/watermarks NDJSON stream:
// shard's durable watermark advanced to Durable. Err/Code report a
// wedged durability pipeline (the stream ends after an error event).
// Final marks the post-drain emission: the server synced every staged
// record and this is the shard's closing watermark.
type WatermarkEvent struct {
	Shard   int    `json:"shard"`
	Durable int    `json:"durable,omitempty"`
	Err     string `json:"err,omitempty"`
	Code    string `json:"code,omitempty"`
	Final   bool   `json:"final,omitempty"`
}

// WatermarksSnapshot answers GET /v1/watermarks?once=1: every shard's
// durable watermark, indexed by shard.
type WatermarksSnapshot struct {
	Durable []int `json:"durable"`
}

// InstanceSummary is one instance's wire projection.
type InstanceSummary struct {
	ID         string `json:"id"`
	Type       string `json:"type"`
	Version    int    `json:"version"`
	Done       bool   `json:"done,omitempty"`
	Suspended  bool   `json:"suspended,omitempty"`
	Biased     bool   `json:"biased,omitempty"`
	Migrations int    `json:"migrations,omitempty"`
}

func instanceSummary(inst *adept2.Instance) *InstanceSummary {
	return &InstanceSummary{
		ID:         inst.ID(),
		Type:       inst.TypeName(),
		Version:    inst.Version(),
		Done:       inst.Done(),
		Suspended:  inst.Suspended(),
		Biased:     inst.Biased(),
		Migrations: inst.Migrations(),
	}
}

// InstanceDetail answers GET /v1/instances/{id}.
type InstanceDetail struct {
	InstanceSummary
	HistoryLen int              `json:"historyLen"`
	Deadlines  map[string]int64 `json:"deadlines,omitempty"`
}

// InstancePage is one cursor page of instances.
type InstancePage struct {
	Instances []*InstanceSummary `json:"instances"`
	Next      string             `json:"next,omitempty"`
}

// WorkItemSummary is one worklist item's wire projection.
type WorkItemSummary struct {
	ID        string   `json:"id"`
	Instance  string   `json:"instance"`
	Node      string   `json:"node"`
	Role      string   `json:"role,omitempty"`
	Offered   []string `json:"offered,omitempty"`
	ClaimedBy string   `json:"claimedBy,omitempty"` // the user who started the item
	State     string   `json:"state"`
}

func workItemSummary(it *adept2.WorkItem) *WorkItemSummary {
	return &WorkItemSummary{
		ID:        it.ID,
		Instance:  it.Instance,
		Node:      it.Node,
		Role:      it.Role,
		Offered:   it.Offered,
		ClaimedBy: it.ClaimedBy,
		State:     it.State.String(),
	}
}

// WorkItemPage is one cursor page of a user's worklist.
type WorkItemPage struct {
	Items []*WorkItemSummary `json:"items"`
	Next  string             `json:"next,omitempty"`
}

// ExceptionSummary is one open exception's wire projection.
type ExceptionSummary struct {
	Instance string `json:"instance"`
	Node     string `json:"node"`
	Kind     string `json:"kind"`
	Reason   string `json:"reason,omitempty"`
	Failures int    `json:"failures"`
	Err      string `json:"err,omitempty"`
}

// ExceptionList answers GET /v1/exceptions.
type ExceptionList struct {
	Exceptions []ExceptionSummary `json:"exceptions"`
}

// HealthSummary answers GET /healthz (status 200
// healthy, 503 unhealthy or draining). Shards sizes a client's
// watermark tracking.
type HealthSummary struct {
	Healthy      bool   `json:"healthy"`
	Shards       int    `json:"shards"`
	Instances    int    `json:"instances"`
	WedgedShards []int  `json:"wedgedShards,omitempty"`
	Err          string `json:"err,omitempty"`
	Draining     bool   `json:"draining,omitempty"`
}

// ReportSummary is a migration report's wire projection.
type ReportSummary struct {
	Type         string         `json:"type"`
	From         int            `json:"from"`
	To           int            `json:"to"`
	Total        int            `json:"total"`
	Outcomes     map[string]int `json:"outcomes,omitempty"`
	ElapsedNanos int64          `json:"elapsedNanos"`
}

func reportSummary(rep *adept2.MigrationReport) *ReportSummary {
	rs := &ReportSummary{
		Type:         rep.TypeName,
		From:         rep.FromVersion,
		To:           rep.ToVersion,
		Total:        len(rep.Results),
		ElapsedNanos: rep.Elapsed.Nanoseconds(),
	}
	for _, res := range rep.Results {
		if rs.Outcomes == nil {
			rs.Outcomes = map[string]int{}
		}
		rs.Outcomes[res.Outcome.String()]++
	}
	return rs
}

// resultSummary projects a command's in-process result onto the wire.
func resultSummary(res any) *ResultSummary {
	switch t := res.(type) {
	case *adept2.Instance:
		return &ResultSummary{Instance: instanceSummary(t)}
	case *adept2.MigrationReport:
		return &ResultSummary{Report: reportSummary(t)}
	case nil:
		return nil
	default:
		return nil
	}
}

// decodeErr wraps a wire decode failure as ErrInvalid.
func decodeErr(what string, err error) error {
	return &adept2.Error{Code: adept2.CodeInvalid, Op: "rpc",
		Err: fmt.Errorf("rpc: malformed %s: %w", what, err)}
}

// The command plane's replies — a command's SubmitResult and a frame's
// BatchResponse, on a stream or as a unary reply — are appended by the
// one appender below, byte for byte what json.Encoder writes for the same
// value, its newline included; a migration report and an error envelope
// inside one go through encoding/json. The client reads a reply in place
// where it is plain (readResult) and hands anything else to encoding/json.
// FuzzRepliesAgainstJSON holds both directions to the reference.

// appendSubmitResult appends r as json.Encoder writes it.
func appendSubmitResult(b []byte, r *SubmitResult) []byte {
	b = append(b, `{"op":`...)
	b = jsonx.AppendString(b, r.Op)
	b = append(b, `,"shard":`...)
	b = strconv.AppendInt(b, int64(r.Shard), 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendInt(b, int64(r.Seq), 10)
	b = append(b, `,"durable":`...)
	b = strconv.AppendBool(b, r.Durable)
	if r.Result != nil {
		b = appendResult(append(b, `,"result":`...), r.Result)
	}
	return append(b, "}\n"...)
}

// appendBatchResponse appends r as json.Encoder writes it.
func appendBatchResponse(b []byte, r *BatchResponse) []byte {
	b = append(b, `{"results":`...)
	if r.Results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, res := range r.Results {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendResult(b, res)
		}
		b = append(b, ']')
	}
	if r.Error != nil {
		b = appendMarshal(append(b, `,"error":`...), r.Error)
	}
	return append(b, "}\n"...)
}

func appendResult(b []byte, r *ResultSummary) []byte {
	if r == nil {
		return append(b, "null"...)
	}
	sep := byte('{')
	if in := r.Instance; in != nil {
		b = append(b, `{"instance":{"id":`...)
		b = jsonx.AppendString(b, in.ID)
		b = append(b, `,"type":`...)
		b = jsonx.AppendString(b, in.Type)
		b = append(b, `,"version":`...)
		b = strconv.AppendInt(b, int64(in.Version), 10)
		if in.Done {
			b = append(b, `,"done":true`...)
		}
		if in.Suspended {
			b = append(b, `,"suspended":true`...)
		}
		if in.Biased {
			b = append(b, `,"biased":true`...)
		}
		if in.Migrations != 0 {
			b = strconv.AppendInt(append(b, `,"migrations":`...), int64(in.Migrations), 10)
		}
		b = append(b, '}')
		sep = ','
	}
	if r.Report != nil {
		b = appendMarshal(append(append(b, sep), `"report":`...), r.Report)
		sep = ','
	}
	if sep == '{' {
		b = append(b, '{')
	}
	return append(b, '}')
}

// appendMarshal appends what json.Marshal writes for v, a value of this
// file's types, which always marshal.
func appendMarshal(b []byte, v any) []byte {
	enc, _ := json.Marshal(v)
	return append(b, enc...)
}

var (
	resultKeys   = [...]string{"instance", "report"}
	instanceKeys = [...]string{"id", "type", "version", "done", "suspended", "biased", "migrations"}
	// instanceZero is what an absent instance member reads as.
	instanceZero = [len(instanceKeys)][]byte{[]byte(`""`), []byte(`""`), []byte("0"), []byte("false"), []byte("false"), []byte("false"), []byte("0")}
)

// readResult reads a raw ResultSummary in place: null, or an object whose
// one member is a plain instance — no key twice or case-folded, strings
// without escapes, an absent member its zero. It reports false for
// anything else, a report included. A summary and its instance take one
// allocation, their two strings one each.
func readResult(val []byte) (*ResultSummary, bool) {
	if string(val) == "null" {
		return nil, true
	}
	var res [len(resultKeys)][]byte
	var in [len(instanceKeys)][]byte
	if !jsonx.Members(val, resultKeys[:], res[:]) || res[0] == nil || res[1] != nil ||
		!jsonx.Members(res[0], instanceKeys[:], in[:]) {
		return nil, false
	}
	for k := range in {
		if in[k] == nil {
			in[k] = instanceZero[k]
		}
	}
	id, ok0 := jsonx.Str(in[0])
	typ, ok1 := jsonx.Str(in[1])
	version, ok2 := jsonx.Int(in[2])
	done, ok3 := jsonx.Bool(in[3])
	suspended, ok4 := jsonx.Bool(in[4])
	biased, ok5 := jsonx.Bool(in[5])
	migrations, ok6 := jsonx.Int(in[6])
	if !ok0 || !ok1 || !ok2 || !ok3 || !ok4 || !ok5 || !ok6 ||
		int64(int(version)) != version || int64(int(migrations)) != migrations {
		return nil, false
	}
	both := new(struct {
		res ResultSummary
		in  InstanceSummary
	})
	both.in = InstanceSummary{ID: string(id), Type: string(typ), Version: int(version),
		Done: done, Suspended: suspended, Biased: biased, Migrations: int(migrations)}
	both.res.Instance = &both.in
	return &both.res, true
}

var batchReplyKeys = [...]string{"results", "error"}

// readBatchResponse reads a frame's reply line into r: in place when it
// is plain — a results array of what readResult reads and no error —
// and by encoding/json otherwise.
func readBatchResponse(body []byte, r *BatchResponse) error {
	var vals [len(batchReplyKeys)][]byte
	n := 0
	count := func([]byte) bool { n++; return true }
	if json.Valid(body) && jsonx.Members(body, batchReplyKeys[:], vals[:]) && vals[0] != nil && vals[1] == nil &&
		jsonx.Array(vals[0], count) {
		results := make([]*ResultSummary, 0, n)
		if jsonx.Array(vals[0], func(elem []byte) bool {
			res, ok := readResult(elem)
			results = append(results, res)
			return ok
		}) {
			*r = BatchResponse{Results: results}
			return nil
		}
	}
	*r = BatchResponse{}
	return json.Unmarshal(body, r)
}
