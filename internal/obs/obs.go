package obs

import (
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonic event counter, padded to its own cache line so
// hot counters in adjacent array slots never false-share. The zero value
// is ready to use; all methods are safe for concurrent use and nil-safe
// (a nil *Counter ignores writes and reads zero), so callers on disabled
// paths need no guards.
type Counter struct {
	v atomic.Int64
	_ [120]byte
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current count.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins instantaneous value (queue depth, lag).
// Same padding, concurrency, and nil-safety contract as Counter.
type Gauge struct {
	v atomic.Int64
	_ [120]byte
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution with power-of-two bucket
// boundaries: observation v lands in bucket bits.Len64(v>>shift), so
// bucket i covers (2^(i-1), 2^i] in units of 2^shift. A latency
// histogram with shift 10 buckets by ~1µs, ~2µs, ~4µs, … — 28 buckets
// reach ~2¼ minutes. Observe is one shift, one bits.Len64, and two
// atomic adds (the bucket, then the sum): cheap enough for every hot
// path. There is no count of its own: a snapshot's Count is the sum of
// the buckets it loaded, so the two always agree. Sum is padded; the
// bucket array is shared (bucket contention only matters when many
// cores observe identical values, which the workloads here do not).
//
// The zero value is NOT ready — use NewHistogram. A nil *Histogram
// ignores observations and snapshots empty.
type Histogram struct {
	sum     atomic.Int64
	_       [120]byte
	shift   uint
	buckets []atomic.Int64
}

// NewHistogram creates a histogram with n buckets of 2^shift-unit
// power-of-two boundaries. Values past the last boundary clamp into the
// final bucket (it doubles as +Inf).
func NewHistogram(n int, shift uint) *Histogram {
	if n < 2 {
		n = 2
	}
	return &Histogram{shift: shift, buckets: make([]atomic.Int64, n)}
}

// Observe records one value (negative values clamp to zero).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	i := bits.Len64(uint64(v) >> h.shift)
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i].Add(1)
	h.sum.Add(v)
}

// UpperBound returns bucket i's inclusive upper boundary in observation
// units (the final bucket returns -1: unbounded).
func (h *Histogram) UpperBound(i int) int64 {
	if i >= len(h.buckets)-1 {
		return -1
	}
	return int64(1) << (uint(i) + h.shift)
}

// HistogramSnapshot is a point-in-time copy of a histogram. Buckets are
// NON-cumulative per-bucket counts aligned with Bounds; Bounds[i] is the
// bucket's inclusive upper boundary in observation units, -1 for the
// final unbounded bucket.
type HistogramSnapshot struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Bounds  []int64 `json:"bounds,omitempty"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// Snapshot copies the histogram. Each bucket is loaded once and Count
// is their sum, so a snapshot taken under load is self-consistent; Sum
// is loaded apart from them and may be off by the observations in
// flight. Trailing empty buckets are trimmed (the unbounded bucket is
// kept only when occupied).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{Sum: h.sum.Load()}
	buckets := make([]int64, len(h.buckets))
	for i := range h.buckets {
		if buckets[i] = h.buckets[i].Load(); buckets[i] > 0 {
			s.Count += buckets[i]
			s.Buckets = buckets[:i+1]
		}
	}
	for i := range s.Buckets {
		s.Bounds = append(s.Bounds, h.UpperBound(i))
	}
	return s
}
