package obs

import (
	"encoding/json"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 50000 {
		t.Fatalf("counter = %d, want 50000", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Add(3)
	g.Add(-1)
	if g.Value() != 2 {
		t.Fatalf("gauge = %d, want 2", g.Value())
	}
	g.Set(7)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := NewHistogram([]time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond})
	// A value exactly on a bound lands in that bucket (d <= bound).
	h.Observe(time.Millisecond)
	// Just above a bound lands in the next bucket.
	h.Observe(time.Millisecond + 1)
	// Beyond the last bound lands in the overflow bucket.
	h.Observe(time.Second)

	want := []int64{1, 1, 0, 1}
	for i := range h.counts {
		if got := h.counts[i].Load(); got != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != time.Second+2*time.Millisecond+1 {
		t.Fatalf("sum = %v", h.Sum())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond})
	if h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram quantile != 0")
	}
	// 90 observations in (10, 20], 10 in (20, 40].
	for i := 0; i < 90; i++ {
		h.Observe(15 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(30 * time.Millisecond)
	}
	p50 := h.Quantile(0.50)
	if p50 <= 10*time.Millisecond || p50 > 20*time.Millisecond {
		t.Fatalf("p50 = %v, want in (10ms, 20ms]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 <= 20*time.Millisecond || p99 > 40*time.Millisecond {
		t.Fatalf("p99 = %v, want in (20ms, 40ms]", p99)
	}
	// Everything in the overflow bucket reports the last bound.
	h2 := NewHistogram([]time.Duration{time.Millisecond})
	h2.Observe(time.Hour)
	if h2.Quantile(0.5) != time.Millisecond {
		t.Fatalf("overflow quantile = %v", h2.Quantile(0.5))
	}
}

// TestDefaultBucketsResolveMicroseconds checks that the default buckets
// estimate sub-millisecond quantiles, the range of one extraction, to
// within a quarter of the exact value rather than interpolating across
// [0, 1ms].
func TestDefaultBucketsResolveMicroseconds(t *testing.T) {
	h := NewHistogram(nil)
	exact := make([]time.Duration, 1000)
	for i := range exact {
		exact[i] = time.Duration(80+i%100) * time.Microsecond
		h.Observe(exact[i])
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	for _, q := range []float64{0.50, 0.90, 0.99} {
		want := exact[int(q*float64(len(exact)))-1]
		got := h.Quantile(q)
		if diff := (got - want).Abs(); diff > want/4 {
			t.Errorf("p%.0f = %v, exact %v", 100*q, got, want)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(nil)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(3 * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
}

func TestRegistryFindOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatalf("Counter not stable across lookups")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatalf("Gauge not stable across lookups")
	}
	if r.Histogram("h", nil) != r.Histogram("h", nil) {
		t.Fatalf("Histogram not stable across lookups")
	}

	r.Counter("requests").Add(2)
	r.Gauge("in_flight").Set(1)
	r.Histogram("latency", nil).Observe(5 * time.Millisecond)

	snap := r.Snapshot()
	if snap.Counters["requests"] != 2 || snap.Gauges["in_flight"] != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Histograms["latency"].Count != 1 {
		t.Fatalf("histogram snapshot = %+v", snap.Histograms["latency"])
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not JSON-serializable: %v", err)
	}
}

func TestRegistryPublishIdempotent(t *testing.T) {
	r := NewRegistry()
	r.Publish("obs_test_registry")
	r.Publish("obs_test_registry") // second publish must not panic
}
