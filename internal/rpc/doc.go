// Package rpc is the one network surface of a System: an HTTP/JSON
// server carrying the command plane and the operational routes on one
// listener, and a typed client, that turn the in-process adept2 API
// into a network service without weakening its durability contract.
//
// # Wire model
//
// Commands travel as registry envelopes — {"op": <name>, "args":
// <json>} — produced by adept2.EncodeCommand and decoded server-side
// by adept2.DecodeWireCommand. The command registry is the single
// codec: an envelope is byte-compatible with the journal record the
// command produces, so the wire protocol versions with the journal
// format (a server replays and serves the same vocabulary). Unknown
// ops and malformed args are rejected before dispatch with ErrInvalid
// (and counted as decode errors in the RPC metrics).
//
// Command-plane routes live under the /v1 prefix; a breaking change to
// envelope, receipt, or stream semantics must mount a new version
// prefix and keep /v1 serving. The operational routes are unversioned,
// where scrapers and probes conventionally look for them.
//
// # Endpoints
//
//	POST /v1/commands          submit one command (mode=sync|async)
//	POST /v1/batch             submit a run, durable on return
//	GET  /v1/watermarks        NDJSON watermark stream (?once=1: snapshot)
//	GET  /v1/control-log       durable control-log suffix (?follow=1: NDJSON tail)
//	GET  /v1/instances         cursor page; /v1/instances/{id} detail
//	GET  /v1/workitems         cursor page of a user's worklist
//	GET  /v1/exceptions        open exception set
//	GET  /v1/healthz, /healthz 200 serving / 503 unhealthy or draining (one handler)
//	GET  /metrics              Prometheus text format 0.0.4
//	GET  /metrics.json         the typed obs.Snapshot
//	GET  /mine.json            mining report (?variants=N caps the table)
//	GET  /trace.json           sampled spans after cursor ?after=N
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
// small POSTs plus one shared stream, not N parked server goroutines.
// Sync mode (the default) is the same dispatch with the watermark wait
// folded into the response.
//
// Batch runs land as one multi-record append and are durable when the
// response arrives; on a mid-run failure the response still carries
// the applied prefix's results plus the in-band error envelope,
// because the prefix's records are journaled and durable.
//
// # Error envelope
//
// Every non-2xx response body is {"error": {"code", "op", "instance",
// "applied", "message"}} — the wire form of *adept2.Error. The HTTP
// status is derived from the code by Code.HTTPStatus (404 not_found,
// 409 conflict/version_skew, 403 denied, 503 wedged, ...). Clients
// rehydrate the envelope into *adept2.Error, so errors.Is against the
// taxonomy sentinels holds across the network; a stripped envelope
// (proxy, panic) degrades to adept2.CodeForHTTPStatus of the bare
// status.
//
// # Streams, backpressure, drain
//
// NDJSON streams (watermarks, control-log tail) are bounded by
// MaxStreams; excess subscriptions are rejected 503. Command handlers
// are bounded by MaxInflight slots; excess requests block in the
// handler, so the TCP connection — and HTTP/1.1's one-request-per-
// connection discipline — absorbs the queue.
//
// The control-log tail serves only fsync-covered records (a subscriber
// must never observe a record a crash could revoke) from shard 0, the
// epoch-stamping global-ordering shard; records arrive epoch-stamped
// exactly as journaled.
//
// Close drains in five steps: reject new work 503 (the operational
// routes keep answering until the last step, /healthz with 503 and
// "draining": true); wait for in-flight command handlers by owning
// every backpressure slot; force every staged record durable
// (SyncDurable); cancel streams, which emit final watermark events
// ("final": true) before ending — resolving every receipt issued
// before the drain — then shut the HTTP server down. A client whose stream ends refreshes the watermark snapshot
// once before failing a wait, so receipts covered by the drain sync
// resolve even when the final events were lost.
package rpc
