// Package obs is the repository's zero-dependency telemetry layer: a
// concurrency-safe metrics registry (counters, gauges, bucketed
// histograms), a structured JSONL run journal, and run-provenance
// collection. Every entry point is nil-safe — a nil *Registry or *Journal
// turns the corresponding instrumentation into a no-op, so "telemetry off"
// is the nil value of each sink — and hot paths (the zeroround trial pool,
// the simnet coordinator) can stay instrumented unconditionally and pay
// nothing when telemetry is disabled.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric. All methods are safe
// for concurrent use and no-ops on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64 metric. All methods are safe for concurrent
// use and no-ops on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta (which may be negative), atomically with
// respect to concurrent Add and Set calls.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the stored value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket int64 histogram. Bounds are inclusive upper
// bounds; an observation v lands in the first bucket with v ≤ bound, or in
// the implicit overflow bucket past the last bound. All methods are safe
// for concurrent use and no-ops on a nil receiver.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	sum    atomic.Int64
	min    atomic.Int64 // sentinel math.MaxInt64 until first observation lands
	max    atomic.Int64 // sentinel math.MinInt64 until first observation lands
}

func newHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	h := &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one value. Sum, min and max are updated before the bucket
// count so that a concurrent Snapshot that counts an observation also sees
// its contribution to the aggregates (Go atomics are sequentially
// consistent).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	// Binary search for the first bound ≥ v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
}

// Snapshot captures the histogram's current state. It is safe against
// concurrent Observe calls: Count is derived from the bucket counts, so the
// invariant Count == Σ buckets (the Prometheus "+Inf" rule) holds in every
// snapshot, and sum/min/max cover at least every counted observation. A nil
// histogram yields an empty snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	// Read the buckets before the aggregates: Observe orders its aggregate
	// writes before the bucket increment, so every observation counted here
	// has already published its sum/min/max contribution by the time the
	// loads below run.
	s := HistogramSnapshot{Buckets: make([]Bucket, 0, len(h.counts))}
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		s.Count += n
		b := Bucket{Count: n}
		if i < len(h.bounds) {
			b.UpperBound = h.bounds[i]
		} else {
			b.UpperBound = math.MaxInt64
			b.Overflow = true
		}
		s.Buckets = append(s.Buckets, b)
	}
	s.Sum = h.sum.Load()
	if min, max := h.min.Load(), h.max.Load(); s.Count > 0 && min != math.MaxInt64 && max != math.MinInt64 {
		s.Min = min
		s.Max = max
	}
	return s
}

// LatencyBuckets returns exponential duration bounds in nanoseconds, from
// 1µs to ~68s in powers of four — the scale of per-trial and per-experiment
// timings.
func LatencyBuckets() []int64 {
	out := make([]int64, 0, 13)
	for v := int64(1000); v <= int64(68e9); v *= 4 {
		out = append(out, v)
	}
	return out
}

// BytesBuckets returns exponential size bounds in bytes, from 16B to 16MB
// in powers of four — the scale of message payloads and traffic volumes.
func BytesBuckets() []int64 {
	out := make([]int64, 0, 11)
	for v := int64(16); v <= int64(16<<20); v *= 4 {
		out = append(out, v)
	}
	return out
}

// Registry holds named metrics. The zero value is not usable; use
// NewRegistry. A nil *Registry is a valid disabled registry: every lookup
// returns a nil metric whose methods no-op.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on a
// nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (later calls ignore bounds). Returns nil on a nil
// registry.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Bucket is one histogram bucket in a snapshot.
type Bucket struct {
	// UpperBound is the bucket's inclusive upper bound; Overflow marks the
	// catch-all bucket past the largest bound.
	UpperBound int64 `json:"le"`
	Overflow   bool  `json:"overflow,omitempty"`
	Count      int64 `json:"count"`
}

// HistogramSnapshot is a histogram's state at snapshot time. Only non-empty
// buckets are recorded.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Min     int64    `json:"min,omitempty"`
	Max     int64    `json:"max,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Mean returns the average observed value, or 0 when empty.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Snapshot is a point-in-time copy of a registry's metrics, suitable for
// JSON encoding and for diffing against an earlier snapshot.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current state. A nil registry yields an
// empty snapshot. Snapshot is safe to call while other goroutines update
// metrics — the export server scrapes a live referee this way — and every
// histogram in the result satisfies Count == Σ bucket counts even mid-update.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for name, h := range r.histograms {
			s.Histograms[name] = h.Snapshot()
		}
	}
	return s
}

// Diff returns the change from earlier to s: counters and histogram
// count/sum/buckets subtract; gauges, histogram min and max keep s's values
// (they are window observations, not monotone accumulators). Metrics absent
// from earlier appear with their full value.
func (s Snapshot) Diff(earlier Snapshot) Snapshot {
	var d Snapshot
	for name, v := range s.Counters {
		if dv := v - earlier.Counters[name]; dv != 0 {
			if d.Counters == nil {
				d.Counters = map[string]int64{}
			}
			d.Counters[name] = dv
		}
	}
	for name, v := range s.Gauges {
		if d.Gauges == nil {
			d.Gauges = map[string]float64{}
		}
		d.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		prev := earlier.Histograms[name]
		if h.Count == prev.Count {
			continue
		}
		dh := HistogramSnapshot{
			Count: h.Count - prev.Count,
			Sum:   h.Sum - prev.Sum,
			Min:   h.Min,
			Max:   h.Max,
		}
		prevBuckets := map[int64]int64{}
		for _, b := range prev.Buckets {
			prevBuckets[b.UpperBound] = b.Count
		}
		for _, b := range h.Buckets {
			if n := b.Count - prevBuckets[b.UpperBound]; n != 0 {
				dh.Buckets = append(dh.Buckets, Bucket{UpperBound: b.UpperBound, Overflow: b.Overflow, Count: n})
			}
		}
		if d.Histograms == nil {
			d.Histograms = map[string]HistogramSnapshot{}
		}
		d.Histograms[name] = dh
	}
	return d
}

// Empty reports whether the snapshot holds no metrics.
func (s Snapshot) Empty() bool {
	return len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Histograms) == 0
}

// Lines renders the snapshot as sorted "name = value" strings, for
// attaching metric deltas to experiment table notes.
func (s Snapshot) Lines() []string {
	var out []string
	for name, v := range s.Counters {
		out = append(out, fmt.Sprintf("%s = %d", name, v))
	}
	for name, v := range s.Gauges {
		out = append(out, fmt.Sprintf("%s = %.4g", name, v))
	}
	for name, h := range s.Histograms {
		out = append(out, fmt.Sprintf("%s = {n: %d, mean: %.4g, max: %d}", name, h.Count, h.Mean(), h.Max))
	}
	sort.Strings(out)
	return out
}
