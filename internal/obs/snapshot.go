package obs

import "sort"

// Snapshot is the typed, JSON-ready point-in-time copy of a system's
// metrics. Set.Snapshot fills the families the Set owns; the facade
// completes the parts only it can see (engine gauges, shard depths,
// health, snapshot-store byte counters, the trace dump) before handing
// it out through System.Metrics and the HTTP endpoints.
type Snapshot struct {
	Ops        map[string]OpSnapshot `json:"ops"`
	Batch      BatchSnapshot         `json:"batch"`
	Shards     []ShardSnapshot       `json:"shards,omitempty"`
	Committer  CommitterSnapshot     `json:"committer"`
	Checkpoint CheckpointSnapshot    `json:"checkpoint"`
	Recovery   RecoverySnapshot      `json:"recovery"`
	Exception  ExceptionSnapshot     `json:"exception"`
	RPC        RPCSnapshot           `json:"rpc"`
	Engine     EngineSnapshot        `json:"engine"`
	Health     HealthSnapshot        `json:"health"`
	Traces     []Span                `json:"traces,omitempty"`
}

// OpSnapshot is one command op's outcome family.
type OpSnapshot struct {
	// OK counts successful applications (singular + batched); Batched
	// is the subset applied inside SubmitBatch runs, so
	// OK-Batched == Latency.Count.
	OK      int64             `json:"ok"`
	Batched int64             `json:"batched,omitempty"`
	Errors  map[string]int64  `json:"errors,omitempty"`
	Latency HistogramSnapshot `json:"latency"`
}

// BatchSnapshot is the SubmitBatch family.
type BatchSnapshot struct {
	Size  HistogramSnapshot `json:"size"`
	Nanos HistogramSnapshot `json:"nanos"`
}

// ShardSnapshot is one durability shard's live view.
type ShardSnapshot struct {
	Shard int `json:"shard"`
	// Appends counts live-path records staged on this shard since the
	// Set was installed (replay records never count).
	Appends int64 `json:"appends"`
	// Seq is the shard journal's head sequence number; Depth is the
	// staged-but-unflushed backlog (Seq - flushed).
	Seq    int  `json:"seq"`
	Depth  int  `json:"depth"`
	Wedged bool `json:"wedged,omitempty"`
}

// CommitterSnapshot is the group-commit pipeline family (aggregated
// across shard committers).
type CommitterSnapshot struct {
	Fsync        HistogramSnapshot `json:"fsync"`
	BatchRecords HistogramSnapshot `json:"batchRecords"`
	Wedges       int64             `json:"wedges"`
	Heals        int64             `json:"heals"`
}

// CheckpointSnapshot covers snapshot writes and the stores' byte
// counters.
type CheckpointSnapshot struct {
	Count        int64             `json:"count"`
	Failures     int64             `json:"failures"`
	Nanos        HistogramSnapshot `json:"nanos"`
	BytesWritten int64             `json:"bytesWritten"`
	BytesRead    int64             `json:"bytesRead"`
}

// RecoverySnapshot describes the Open-time recovery that preceded this
// Set's installation.
type RecoverySnapshot struct {
	Count       int64 `json:"count"`
	Nanos       int64 `json:"nanos"`
	Replayed    int64 `json:"replayed"`
	Fallbacks   int64 `json:"fallbacks"`
	FullReplays int64 `json:"fullReplays"`
}

// ExceptionSnapshot is the fault-tolerance loop family. Failures,
// Timeouts, and Retries are the ok counts of the fail/timeout/retry
// ops (filled by the facade from the outcome matrix).
type ExceptionSnapshot struct {
	Failures      int64             `json:"failures"`
	Timeouts      int64             `json:"timeouts"`
	Retries       int64             `json:"retries"`
	Actions       map[string]int64  `json:"actions,omitempty"`
	Compensated   int64             `json:"compensated"`
	Sweeps        int64             `json:"sweeps"`
	SweepErrors   int64             `json:"sweepErrors"`
	SweepNanos    HistogramSnapshot `json:"sweepNanos"`
	SweepLagNanos int64             `json:"sweepLagNanos"`
}

// RPCSnapshot is the networked command plane's family. Endpoints holds
// only endpoints that served at least one request, keeping systems
// without an RPC server small.
type RPCSnapshot struct {
	Endpoints    map[string]RPCEndpointSnapshot `json:"endpoints,omitempty"`
	OpenStreams  int64                          `json:"openStreams"`
	StreamEvents int64                          `json:"streamEvents"`
	DecodeErrors int64                          `json:"decodeErrors"`
}

// RPCEndpointSnapshot is one wire endpoint's request family.
type RPCEndpointSnapshot struct {
	Requests int64             `json:"requests"`
	Failures int64             `json:"failures,omitempty"`
	Latency  HistogramSnapshot `json:"latency"`
}

// EngineSnapshot is the engine's instantaneous gauges (facade-filled).
type EngineSnapshot struct {
	Instances      int `json:"instances"`
	WorklistDepth  int `json:"worklistDepth"`
	OpenExceptions int `json:"openExceptions"`
}

// HealthSnapshot folds HealthInfo into the scrapeable plane
// (facade-filled).
type HealthSnapshot struct {
	Wedged        bool   `json:"wedged"`
	WedgedShards  []int  `json:"wedgedShards,omitempty"`
	CheckpointErr string `json:"checkpointErr,omitempty"`
	CleanupErrs   int64  `json:"cleanupErrs"`
	FlushRetries  int64  `json:"flushRetries"`
}

// Snapshot copies the Set-owned families. A nil Set snapshots empty
// (but non-nil maps, so consumers need no guards).
func (s *Set) Snapshot() *Snapshot {
	snap := &Snapshot{Ops: map[string]OpSnapshot{}}
	if s == nil {
		return snap
	}
	for i, op := range s.Ops {
		o := OpSnapshot{
			OK:      s.outcomes[i*len(s.Codes)].Load(),
			Batched: s.batched[i].Load(),
			Latency: s.SubmitLatency[i].Snapshot(),
		}
		for c := 1; c < len(s.Codes); c++ {
			if n := s.outcomes[i*len(s.Codes)+c].Load(); n > 0 {
				if o.Errors == nil {
					o.Errors = map[string]int64{}
				}
				o.Errors[s.Codes[c]] = n
			}
		}
		if o.OK == 0 && o.Errors == nil {
			continue // never submitted: keep the snapshot small
		}
		snap.Ops[op] = o
	}
	snap.Batch = BatchSnapshot{Size: s.BatchSize.Snapshot(), Nanos: s.BatchNanos.Snapshot()}
	snap.Shards = make([]ShardSnapshot, len(s.shardAppends))
	for k := range s.shardAppends {
		snap.Shards[k] = ShardSnapshot{Shard: k, Appends: s.shardAppends[k].Load()}
	}
	snap.Committer = CommitterSnapshot{
		Fsync:        s.Committer.FsyncNanos.Snapshot(),
		BatchRecords: s.Committer.BatchRecords.Snapshot(),
		Wedges:       s.Committer.Wedges.Load(),
		Heals:        s.Committer.Heals.Load(),
	}
	snap.Checkpoint = CheckpointSnapshot{
		Count:    s.Checkpoint.Count.Load(),
		Failures: s.Checkpoint.Failures.Load(),
		Nanos:    s.Checkpoint.Nanos.Snapshot(),
	}
	snap.Recovery = RecoverySnapshot{
		Count:       s.Recovery.Count.Load(),
		Nanos:       s.Recovery.Nanos.Load(),
		Replayed:    s.Recovery.Replayed.Load(),
		Fallbacks:   s.Recovery.Fallbacks.Load(),
		FullReplays: s.Recovery.FullReplays.Load(),
	}
	x := ExceptionSnapshot{
		Compensated:   s.Exception.Compensated.Load(),
		Sweeps:        s.Exception.Sweeps.Load(),
		SweepErrors:   s.Exception.SweepErrors.Load(),
		SweepNanos:    s.Exception.SweepNanos.Snapshot(),
		SweepLagNanos: s.Exception.SweepLagNanos.Load(),
	}
	for i := range s.Exception.Actions {
		if n := s.Exception.Actions[i].Load(); n > 0 {
			if x.Actions == nil {
				x.Actions = map[string]int64{}
			}
			x.Actions[ActionNames[i]] = n
		}
	}
	snap.Exception = x
	snap.RPC = RPCSnapshot{
		OpenStreams:  s.RPC.OpenStreams.Load(),
		StreamEvents: s.RPC.StreamEvents.Load(),
		DecodeErrors: s.RPC.DecodeErrors.Load(),
	}
	for i := range s.RPC.ok {
		ok, failed := s.RPC.ok[i].Load(), s.RPC.failed[i].Load()
		if ok+failed == 0 {
			continue
		}
		if snap.RPC.Endpoints == nil {
			snap.RPC.Endpoints = map[string]RPCEndpointSnapshot{}
		}
		snap.RPC.Endpoints[RPCEndpoints[i]] = RPCEndpointSnapshot{
			Requests: ok + failed,
			Failures: failed,
			Latency:  s.RPC.Latency[i].Snapshot(),
		}
	}
	traces := s.Ring.Snapshot()
	sort.Slice(traces, func(i, j int) bool { return traces[i].SubmitNanos < traces[j].SubmitNanos })
	snap.Traces = traces
	return snap
}
