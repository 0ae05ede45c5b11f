package rpc

import (
	"encoding/json"
	"net/http"
	"strconv"

	"adept2"
	"adept2/internal/obs"
)

// The operational routes: health, metrics, mining and trace export,
// mounted unversioned next to /v1 on the same mux. They bypass the
// command backpressure slots, so a scrape or probe is answered while the
// plane is saturated and for as long as the listener is up during a
// drain.

func writePretty(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// handleHealth serves GET /healthz: 200 with the summary while
// System.Health is nil and the server is not draining, 503 with the same
// summary body otherwise — a wedged write path or a failing background
// checkpoint, exactly what Health reports. The body always parses, so a
// client learns the shard count either way.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	sum := HealthSummary{
		Healthy:      true,
		Shards:       s.sys.NumShards(),
		Instances:    len(s.sys.Instances()),
		WedgedShards: s.sys.HealthInfo().WedgedShards,
		Draining:     s.draining.Load(),
	}
	if err := s.sys.Health(); err != nil {
		sum.Healthy, sum.Err = false, err.Error()
	}
	status := http.StatusOK
	if !sum.Healthy || sum.Draining {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, sum)
}

// handleMetrics serves GET /metrics: the snapshot in Prometheus text
// format 0.0.4.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WritePrometheus(w, s.sys.Metrics())
}

// handleMetricsJSON serves GET /metrics.json: the typed snapshot.
func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	writePretty(w, s.sys.Metrics())
}

// handleMine serves GET /mine.json?variants=N: the mining report over
// the live population.
func (s *Server) handleMine(w http.ResponseWriter, r *http.Request) {
	var opts adept2.MineOptions
	if n, err := strconv.Atoi(r.URL.Query().Get("variants")); err == nil {
		opts.MaxVariants = n
	}
	rep, err := s.sys.Mine(r.Context(), opts)
	if err != nil {
		writeError(w, err)
		return
	}
	writePretty(w, rep)
}

// handleTrace serves GET /trace.json?after=N: the sampled spans
// published after cursor N plus the cursor to resume from.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	var after uint64
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, decodeErr("after cursor", err))
			return
		}
		after = n
	}
	var ring *obs.TraceRing
	if s.met != nil {
		ring = s.met.Ring
	}
	spans, next := ring.Export(after)
	writePretty(w, obs.TraceExport{Next: next, Spans: spans})
}
