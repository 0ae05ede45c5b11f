package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one command share Cmd;
// Parent names the span that caused this one ("" for a root). Times are
// nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Cmd    int    `json:"cmd"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// maxSpans bounds the trace file; durations keep accumulating past it.
const maxSpans = 60000

// tracer records spans in memory around the harness's calls and writes
// them out when the run ends. A nil tracer records nothing, so the
// untraced run pays one branch per call site.
type tracer struct {
	t0    time.Time
	cmd   int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(name, parent string, start, end time.Time) {
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{name, t.cmd, parent, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
	}
}

// command records one submitted command: through the local door as a stage
// span and a durability-wait span under the root, through the remote door
// as the one client call.
func (t *tracer) command(start, staged, end time.Time, remote bool) {
	if t == nil {
		return
	}
	t.cmd++
	t.add("cmd", "", start, end)
	if remote {
		t.add("rpc.submit", "cmd", start, end)
		return
	}
	t.add("facade.stage", "cmd", start, staged)
	t.add("durable.wait", "cmd", staged, end)
}

func (t *tracer) read(start, end time.Time, remote bool) {
	if t == nil {
		return
	}
	t.cmd++
	t.add("read", "", start, end)
	if remote {
		t.add("rpc.read", "read", start, end)
	} else {
		t.add("worklist.page", "read", start, end)
	}
}

// root records a call that is a request of its own (an ad-hoc change, an
// Evolve, a checkpoint, a recovery).
func (t *tracer) root(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.cmd++
	t.add(name, "", start, end)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
