// Package rpc is the one network surface of a System: an HTTP/JSON
// server carrying the command plane and the operational routes on one
// listener, and a typed client, that turn the in-process adept2 API
// into a network service without weakening its durability contract.
//
// # Wire model
//
// Commands travel as registry envelopes — {"op": <name>, "args":
// <json>} — args appended by adept2.AppendCommandArgs and decoded
// server-side through the same registry (an adept2.WireDecoder where the
// envelope is cut in place, adept2.DecodeWireCommand where encoding/json
// read it). The command registry is the single codec: an envelope is
// byte-compatible with the journal record the command produces, so the
// wire protocol versions with the journal format (a server replays and
// serves the same vocabulary). Unknown ops and malformed args are
// rejected before dispatch with ErrInvalid (and counted as decode errors
// in the RPC metrics).
//
// A command line is decoded in one pass. Once json.Valid has accepted
// the line, the envelope's members are cut where they lie
// (internal/jsonx) and the registry decodes the args span in place: a
// flat command — create, start, complete (with outputs too, while they
// are plain strings), suspend, fail, timeout, retry, undo — from the json
// tags of its struct; any other through its encoding/json decoder. A
// string that names what the System holds — an instance ID, a deployed
// type, a node ID or user name its histories recorded — decodes to the
// System's own string, and any other is copied, so nothing decoded
// aliases the line. Each command stream has one decoder that decodes
// every plain line into its own struct for the line's form, zeroed
// first, and a completion's outputs into its own map: the reader is done
// with a command once SubmitAsync returns, for the journal encodes the
// record before the append returns. A stream's plain start or complete
// naming a known instance, node and user therefore costs no allocation
// to decode. The unary form and a frame — which holds all its commands at
// once — decode each plain command into a new struct, with the same
// names. The pass declines whatever is not plain — an escaped, repeated,
// case-folded or unknown key, a null, a number that is not a plain
// integer, a non-ASCII string, an output that is not a plain string, more
// than eight outputs — and such a line, like every line that is not JSON,
// is decoded by encoding/json from the start (decodeCommandLineJSON), so
// what a line means and why a bad one is bad are encoding/json's to say;
// FuzzDecodeAgainstJSON holds the two together. A fail line's retryAt,
// pending and reaction are the record's: the server's exception policy
// reacts inside the command and a client's members are dropped.
//
// A batch is one request line too, a frame: {"batch": [<envelope>, …]},
// read the same way. The line's one member is "batch", an array, and each
// element is read by the envelope reader a command line is read by — a
// frame's element is a command line without a mode. A frame that declines
// anywhere — a case-folded or repeated key, an element that is null, not
// an object or has a mode, an element whose decode fails — goes to
// encoding/json whole, and the reference refuses a frame that also
// carries an op, args or a mode, an element with a mode or a frame of its
// own, and anything after the one object: such a frame runs nothing and
// answers invalid in its position. FuzzDecodeAgainstJSON holds frames to
// the reference as it holds command lines.
//
// Replies are appended as the client appends commands: a SubmitResult and
// a frame's BatchResponse (on a stream or as a unary reply) are byte for
// byte what json.Encoder writes, newline included, while an error
// envelope and a migration report are still written by encoding/json.
// The client appends a command's args with the journal's own appender,
// which refuses with ErrInvalid what Submit refuses for the journal's
// sake (a string that is not UTF-8, a NaN or infinite output), builds the
// line or the frame around them in one reused buffer, and reads an
// acknowledgement, a create's result and a frame's reply in place, with
// one reader for an instance summary; anything else in a reply is
// encoding/json's. FuzzRepliesAgainstJSON holds both ends of a reply to
// encoding/json.
//
// Command-plane routes live under the /v1 prefix. Two of them were
// removed from /v1 without a new prefix: POST /v1/batch, when a batch
// became a frame on the command stream, and the GET /v1/control-log tail,
// whose follower replay is parked (GET /v1/healthz, an alias of /healthz,
// went with them). This module's own Client is the supported client, and
// it speaks what this server serves. Any other breaking change to
// envelope, receipt, or stream semantics must mount a new version prefix
// and keep /v1 serving. The operational routes are unversioned, where
// scrapers and probes conventionally look for them.
//
// # Endpoints
//
//	POST /v1/commands    submit commands and frames: an NDJSON stream both ways, or one JSON body
//	GET  /v1/watermarks  NDJSON watermark stream (?once=1: snapshot)
//	GET  /v1/instances   cursor page; /v1/instances/{id} detail
//	GET  /v1/workitems   cursor page of a user's worklist
//	GET  /v1/exceptions  open exception set
//	GET  /healthz        200 serving / 503 unhealthy or draining
//	GET  /metrics        Prometheus text format 0.0.4
//	GET  /metrics.json   the typed obs.Snapshot
//	GET  /mine.json      mining report (?variants=N caps the table)
//	GET  /trace.json     sampled spans after cursor ?after=N
//
// # The command stream
//
// POST /v1/commands with Content-Type application/x-ndjson is a
// full-duplex stream. Every non-empty request line is one command —
// {"op", "args", "mode"}, mode "sync" (the default) or "async" — or one
// frame, and every reply line is that command's SubmitResult, that
// frame's BatchResponse, or {"error": {…}}, in request order, so nothing
// carries a correlation id. The response headers (200) come at once and
// the exchange stays open until either side ends it. A malformed line or
// an unknown op answers an invalid envelope in its position and the
// stream carries on. So does a mode that is present and neither "sync"
// nor "async": a misspelt "async" is refused, in either framing, not
// quietly run as a blocking sync.
//
// Any other Content-Type is the stream's length-one case: the body is one
// request line, answered with an HTTP status and a SubmitResult, a
// BatchResponse (200, whatever its commands did) or an error envelope (a
// frame that does not decode: 400). Both framings run each line through
// the same two steps — apply (decode, take a backpressure slot,
// SubmitAsync, or SubmitBatch for a frame) and settle (a sync command
// waits for its record's fsync; the slot frees; the line is counted) —
// and adept2_rpc_requests_total{endpoint="commands"} and its latency
// histogram count one request per line, a command or a frame, in both;
// adept2_batch_commands and adept2_submit_total count a frame's commands.
//
// On a stream the server's reader applies lines in arrival order without
// waiting for replies, and a writer settles and answers them in the same
// order, flushing when it has caught up. One client's sync commands
// therefore reach the committer back to back and share flushes the way
// in-process SubmitAsync callers do. Order has its price: a reply waits
// for the replies before it, so an async acknowledgement queued behind a
// sync command arrives when that command is durable. Client opens one
// stream lazily and sends every Submit, SubmitAsync and SubmitBatch down
// it: a command costs a line each way, and a batch one frame each way,
// not an HTTP request. A submitter whose ctx ends gets ErrCanceled at
// once; its line had left, so the command may still have applied, and
// its reply is discarded in its position. When the stream is lost every
// waiting call fails with ErrWedged (same caveat) and the next submit
// dials a new stream.
//
// GET /v1/workitems?user=U&cursor=C&limit=N pages a worklist in item-ID
// order; "next" is the ID of the page's last item. A work item's ID is
// derived from its instance and node alone (see internal/worklist), so
// an ID or a cursor this server handed out names the same work to the
// next server process on the store — after a restart recovered from a
// snapshot or by full replay, after a reshard, at any shard count. A
// cursor need not name a live item: the page starts at the first ID
// above it.
//
// Health has one definition: the status is 200 exactly while
// System.Health is nil (no wedged shard, no failing background
// checkpoint) and the server is not draining; the body is the same
// HealthSummary in every case, so a 503 still parses.
//
// # Receipt tokens and durability
//
// An async submission answers a receipt token (shard, seq): the
// journal position the applied command's record received. The token's
// resolution rule is the same invariant the in-process Receipt waits
// on — the record is crash-durable exactly when the shard's durable
// watermark (highest fsync-covered sequence number) reaches seq.
//
// The server never tracks receipts. It streams watermark advances over
// GET /v1/watermarks as NDJSON — one JSON object per line, flushed per
// line — and clients resolve any number of in-flight receipts locally
// against that single stream. This is what preserves the async
// pipelining win across the hop: N outstanding submissions cost N
// lines on the command stream plus one shared watermark stream, not N
// parked server goroutines. Sync mode (the default) is the same dispatch
// with the durability wait folded into the reply.
//
// A frame is System.SubmitBatch, on one backpressure slot, and is durable
// when its reply arrives: one barrier per run, and a stop at the first
// failure. On a mid-run failure the reply still carries the applied
// prefix's results plus the in-band error envelope, because the prefix's
// records are journaled and durable.
//
// # Error envelope
//
// Every non-2xx response body, and every failed command's reply line, is
// {"error": {"code", "op", "instance", "applied", "message"}} — the wire
// form of *adept2.Error. The HTTP
// status is derived from the code by Code.HTTPStatus (404 not_found,
// 409 conflict/version_skew, 403 denied, 503 wedged, ...). Clients
// rehydrate the envelope into *adept2.Error, so errors.Is against the
// taxonomy sentinels holds across the network; a stripped envelope
// (proxy, panic) degrades to adept2.CodeForHTTPStatus of the bare
// status.
//
// # Streams, backpressure, drain
//
// Watermark subscriptions are bounded by MaxStreams; excess
// subscriptions are rejected 503. Request lines are bounded by
// MaxInflight slots over all connections, each held from the moment a
// command or frame is decoded until it is settled; at the limit a
// stream's reader stops reading (and a unary handler waits), so the TCP
// connection carries the backpressure to the client's writes.
//
// Close drains in five steps. (1) New work is refused: 503 for a new
// request, subscription or command stream, the same draining envelope in
// band for a line read on an open command stream; the operational routes
// keep answering until the last step, /healthz with 503 and "draining":
// true. (2) Close waits until it owns every backpressure slot, that is
// until every command already read has been applied and answered. (3)
// Every staged record is forced durable (SyncDurable). (4) Streams are
// canceled: watermark streams emit their final events ("final": true)
// first — resolving every receipt issued before the drain — and a
// command stream's reply body ends, whether or not the client ever closes
// its side. (5) The HTTP server shuts down. So every
// command acknowledged on a stream before or during the drain is durable
// when Close returns. A client whose watermark stream ends refreshes the
// watermark snapshot once before failing a wait, so receipts covered by
// the drain sync resolve even when the final events were lost.
package rpc
