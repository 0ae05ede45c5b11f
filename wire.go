package adept2

import (
	"context"
	"encoding/json"
	"fmt"
)

// This file is the façade's wire plane: the exported choke points the
// networked command plane (internal/rpc) builds on. The command table
// stays the single source of truth — EncodeCommand, DecodeWireCommand and
// WireDecoder expose its codecs without exposing the table itself — and the
// durability watermarks exported here are what lets receipt resolution
// stream across a network hop with the same fsync-coverage semantics as
// the in-process Receipt.

// EncodeCommand serializes a Command into its wire form: its row's journal
// op and the JSON args a server-side DecodeWireCommand (or recovery
// replay) decodes back into the identical typed command. It is
// AppendCommandArgs into a fresh slice, made with room for a flat
// command's args so that they take one allocation.
func EncodeCommand(cmd Command) (op string, args json.RawMessage, err error) {
	op, args, err = AppendCommandArgs(make([]byte, 0, 128), cmd)
	if err != nil {
		return "", nil, err
	}
	return op, args, nil
}

// AppendCommandArgs appends cmd's wire args to b and returns the journal
// op of its row: byte for byte the args the journal writes for the
// command — Resume as op "suspend" with the resume flag, ad-hoc changes
// and evolutions with their operations in the change codec. A flat command
// appends through its wire form's AppendJSON, the journal's own path; a
// user, a deployment and a change-op carrier go through encoding/json. A string that is not
// UTF-8, an output with no JSON form (NaN, ±Inf) and a foreign Command
// implementation are refused with ErrInvalid naming the command, mirroring
// Submit. On error the returned slice is nil.
func AppendCommandArgs(b []byte, cmd Command) (op string, _ []byte, err error) {
	c, err := asCommand(cmd)
	if err != nil {
		return "", nil, err
	}
	op = c.row().op
	switch t := c.(type) {
	case *Suspend, *Resume:
		b, err = suspendForm.appendJSON(b, &suspendArgs{Instance: t.target(), Resume: t.row() == resumeCmd})
	case interface{ AppendJSON([]byte) ([]byte, error) }: // a flat command
		b, err = t.AppendJSON(b)
	default:
		args := any(cmd)
		if enc, ok := cmd.(argsEncoder); ok {
			args, err = enc.encodeArgs()
		}
		var blob []byte
		if err == nil {
			blob, err = json.Marshal(args)
		}
		b = append(b, blob...)
	}
	if err != nil {
		return op, nil, wrapErr(c.CommandName(), c.target(), err)
	}
	return op, b, nil
}

// DecodeWireCommand resolves a wire (op, args) pair — produced by
// EncodeCommand on a remote client, or read from a journal — to its typed
// Command through the same command table recovery replay uses. Unknown
// ops and malformed args return ErrInvalid.
func DecodeWireCommand(op string, args json.RawMessage) (Command, error) {
	cmd, err := decodeCommand(op, args)
	if err != nil {
		return nil, &Error{Code: CodeInvalid, Op: op, Err: err}
	}
	return cmd, nil
}

// WireDecoder is the command plane's args decoder: DecodeWireCommand for
// a caller that holds a whole line json.Valid has accepted and has cut it
// into members itself. A string member that names what the System holds —
// an instance ID, a deployed type, a node ID or user name some history
// recorded — decodes to the System's own string, not a copy, so nothing
// decoded aliases the line; any other string is a copy.
//
// A reusing decoder (System.WireDecoder(true)) decodes every plain command
// into one struct of its own per flat form, zeroed first: the command it
// returns is valid until the next Decode, so it belongs to one goroutine,
// which must be done with a command — SubmitAsync has returned, and with
// it the journal's encoding of the record — before it decodes the next.
// Without reuse every command is new, and the decoder may be shared.
type WireDecoder struct {
	sys  *System
	into *wireStructs // nil: a new command per Decode
}

// WireDecoder returns a decoder that resolves names against s, reusing
// its command structs if reuse is set.
func (s *System) WireDecoder(reuse bool) *WireDecoder {
	d := &WireDecoder{sys: s}
	if reuse {
		d.into = new(wireStructs)
	}
	return d
}

// Decode decodes a command from op, the bytes of its op name, and args,
// its raw args value, both aliasing a line json.Valid has accepted. The op
// comes back as its row's own string, so a plain command whose names
// the System holds costs a reusing decoder nothing, and any other decoder
// its struct.
func (d *WireDecoder) Decode(op, args []byte) (Command, string, error) {
	r, ok := journalOps[string(op)]
	if !ok {
		_, err := DecodeWireCommand(string(op), args)
		return nil, "", err
	}
	cmd, err := r.decodeArgs(args, true, d.into, d.sys)
	if err != nil {
		return nil, "", &Error{Code: CodeInvalid, Op: r.op, Err: err}
	}
	return cmd, r.op, nil
}

// NumShards returns the durability layout's shard count (1 for a system
// created with New). Wire receipt tokens identify a record by (shard,
// shard-local sequence number), so clients size their watermark tracking
// from this.
func (s *System) NumShards() int { return s.layout.Shards }

// journalSeqs returns every shard's journal head sequence number. A
// system created with New is one shard with nothing journaled.
func (s *System) journalSeqs() []int {
	if s.wal == nil {
		return []int{0}
	}
	return s.wal.Seqs()
}

// DurableWatermarks returns every shard's durable watermark: the highest
// shard-local sequence number covered by an fsync. A Receipt for (shard,
// seq) is durable exactly when watermark[shard] >= seq — the invariant
// the wire plane's watermark stream carries to remote clients.
func (s *System) DurableWatermarks() []int {
	if s.wal == nil {
		return []int{0} // New(): nothing journaled
	}
	return s.wal.Durable()
}

// DurableWatermark returns one shard's durable watermark (0 for a shard
// the layout does not have): what a per-command caller reads instead of
// building the all-shards slice.
func (s *System) DurableWatermark(shard int) int {
	if s.wal == nil || shard < 0 || shard >= s.NumShards() {
		return 0
	}
	return s.wal.ShardDurable(shard)
}

// WaitDurable blocks until shard's durable watermark covers seq, the
// durability pipeline wedges (ErrWedged), or ctx is done (ErrCanceled).
// seq may lie beyond the journal head: the wait then spans the append
// AND its flush, which is what lets a watermark streamer park on the
// shard's committer until the next record lands. A system created with
// New never journals: its watermark stays 0, so a wait for seq > 0 ends
// only with ctx.
func (s *System) WaitDurable(ctx context.Context, shard, seq int) error {
	const op = "wait_durable"
	n := s.NumShards()
	if shard < 0 || shard >= n {
		return &Error{Code: CodeInvalid, Op: op,
			Err: fmt.Errorf("adept2: shard %d out of range [0,%d)", shard, n)}
	}
	if s.wal != nil {
		return wrapErr(op, "", s.wal.WaitShardSeq(ctx, shard, seq))
	}
	if seq <= 0 {
		return nil
	}
	<-ctx.Done()
	return wrapErr(op, "", ctx.Err())
}

// SyncDurable forces every staged journal record durable (one flush +
// fsync per shard), advancing the watermarks to the journal heads. The
// wire plane calls this on graceful drain so in-flight receipts resolve
// before streams close; it is also a barrier for tests.
func (s *System) SyncDurable() error {
	if s.wal == nil {
		return nil // New(): nothing staged
	}
	return wrapErr("sync", "", s.wal.Sync())
}
