package obs

import (
	"expvar"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.  The zero value is ready
// to use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down (e.g. in-flight requests).
// The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefaultLatencyBuckets are the histogram bounds used for request
// latencies: 10µs..10s, roughly logarithmic.  The sub-millisecond bounds
// resolve a single extraction and its queue wait, which take tens to
// hundreds of microseconds.
var DefaultLatencyBuckets = []time.Duration{
	10 * time.Microsecond, 20 * time.Microsecond, 50 * time.Microsecond,
	100 * time.Microsecond, 200 * time.Microsecond, 500 * time.Microsecond,
	1 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second, 2500 * time.Millisecond, 5 * time.Second, 10 * time.Second,
}

// Histogram is a fixed-bucket duration histogram.  An observation d lands
// in the first bucket whose upper bound satisfies d <= bound; observations
// beyond the last bound land in an overflow bucket.  All operations are
// lock-free.
type Histogram struct {
	bounds []time.Duration // ascending upper bounds
	counts []atomic.Int64  // len(bounds)+1, last is overflow
	count  atomic.Int64
	sum    atomic.Int64 // nanoseconds
}

// NewHistogram returns a histogram over the given ascending upper bounds.
// A nil bounds slice uses DefaultLatencyBuckets.
func NewHistogram(bounds []time.Duration) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	h := &Histogram{bounds: bounds}
	h.counts = make([]atomic.Int64, len(bounds)+1)
	return h
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observed durations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// inside the bucket that contains it.  Observations in the overflow bucket
// report the last bound.  A histogram with no observations reports 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	cum := 0.0
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= target {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := time.Duration(0)
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (target - cum) / n
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// Snapshot returns the serializable state of the histogram, with
// millisecond-denominated quantiles.
func (h *Histogram) Snapshot() HistogramSnapshot {
	snap := HistogramSnapshot{
		Count: h.Count(),
		SumMs: ms(h.Sum()),
		P50Ms: ms(h.Quantile(0.50)),
		P90Ms: ms(h.Quantile(0.90)),
		P95Ms: ms(h.Quantile(0.95)),
		P99Ms: ms(h.Quantile(0.99)),
	}
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		b := BucketCount{Count: n}
		if i < len(h.bounds) {
			b.LEMs = ms(h.bounds[i])
		} else {
			b.LEMs = -1 // overflow
		}
		snap.Buckets = append(snap.Buckets, b)
	}
	return snap
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// HistogramSnapshot is the wire form of a histogram.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	SumMs   float64       `json:"sum_ms"`
	P50Ms   float64       `json:"p50_ms"`
	P90Ms   float64       `json:"p90_ms"`
	P95Ms   float64       `json:"p95_ms"`
	P99Ms   float64       `json:"p99_ms"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one non-empty histogram bucket; LEMs is the upper bound
// in milliseconds, -1 for the overflow bucket.
type BucketCount struct {
	LEMs  float64 `json:"le_ms"`
	Count int64   `json:"count"`
}

// Registry is a named collection of counters, gauges and histograms with a
// JSON-serializable snapshot.  Metric accessors find-or-create, so callers
// can look metrics up by name without wiring.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// (nil for DefaultLatencyBuckets) on first use.  Bounds of an existing
// histogram are not changed.
func (r *Registry) Histogram(name string, bounds []time.Duration) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot returns the current value of every metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{}
	if len(r.counters) > 0 {
		snap.Counters = make(map[string]int64, len(r.counters))
		for n, c := range r.counters {
			snap.Counters[n] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		snap.Gauges = make(map[string]int64, len(r.gauges))
		for n, g := range r.gauges {
			snap.Gauges[n] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		snap.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for n, h := range r.hists {
			snap.Histograms[n] = h.Snapshot()
		}
	}
	return snap
}

// Publish exposes the registry under the given expvar name (and therefore
// on /debug/vars when the expvar handler is mounted).  Publishing the same
// name twice is a no-op rather than the expvar panic, so tests and
// restarts within one process are safe.
func (r *Registry) Publish(name string) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

// Snapshot is the serializable state of a Registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}
