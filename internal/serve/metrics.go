package serve

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"mse/internal/dom"
	"mse/internal/editdist"
	"mse/internal/excache"
	"mse/internal/layout"
	"mse/internal/obs"
	"mse/internal/prune"
	"mse/internal/quality"
	"mse/internal/relearn"
	"mse/internal/shard"
	"mse/internal/wrapper"
)

// Metrics aggregates service-level observability: an in-flight gauge, a
// total request counter and, per engine, request/error/section/record
// counters plus a latency histogram.  All metrics also live in an
// obs.Registry under dotted names ("engine.<name>.requests", ...), which
// is what /metrics serializes and what Publish exposes via expvar.
type Metrics struct {
	start    time.Time
	reg      *obs.Registry
	inFlight *obs.Gauge
	requests *obs.Counter
	errors   *obs.Counter
	// Fault-tolerance counters (§10 of DESIGN.md): recovered handler
	// panics, requests shed by admission control, and requests abandoned
	// because the client vanished or the deadline expired.
	panics   *obs.Counter
	shed     *obs.Counter
	canceled *obs.Counter
	// Sharded serving: requests answered 421 because another shard owns
	// the engine.
	misrouted *obs.Counter
	// Batch serving: batch requests and the pages they carried.
	batches    *obs.Counter
	batchPages *obs.Counter
	// Self-healing lifecycle counters (§14 of DESIGN.md): relearn jobs
	// started, failed attempts, candidates rejected by the canary,
	// completed hot swaps, and circuit-breaker openings.
	relearnJobs          *obs.Counter
	relearnFailures      *obs.Counter
	relearnCanaryRejects *obs.Counter
	relearnSwaps         *obs.Counter
	relearnCircuitOpen   *obs.Counter
	// Reservoir occupancy, refreshed from the controller on every /metrics
	// scrape (gauges, not counters: the reservoir drains and refills).
	relearnReservoirPages *obs.Gauge
	relearnReservoirBytes *obs.Gauge
	// extractInFlight counts requests holding an extraction slot (distinct
	// from inFlight, which counts every HTTP request including /metrics
	// scrapes); queueWait is how long admitted /extract requests waited
	// for their slot.
	extractInFlight *obs.Gauge
	queueWait       *obs.Histogram

	mu      sync.Mutex
	engines map[string]*engineMetrics
}

type engineMetrics struct {
	requests *obs.Counter
	errors   *obs.Counter
	sections *obs.Counter
	records  *obs.Counter
	latency  *obs.Histogram
	// Quality metrics mirrored from the drift tracker after every
	// extraction: the verdict as an enum gauge (0 OK, 1 SUSPECT,
	// 2 DRIFTED), the smoothed anomaly rate in basis points (1/100 of a
	// percent — gauges are integers), and the count of empty extractions.
	verdict   *obs.Gauge
	anomalyBP *obs.Gauge
	empty     *obs.Counter
}

// applyQuality mirrors a drift assessment onto the engine's gauges.
func (em *engineMetrics) applyQuality(a quality.Assessment) {
	em.verdict.Set(int64(a.Verdict))
	em.anomalyBP.Set(int64(a.AnomalyRate * 10000))
}

// NewMetrics returns an empty metrics set with its uptime clock started.
func NewMetrics() *Metrics {
	reg := obs.NewRegistry()
	return &Metrics{
		start:                 time.Now(),
		reg:                   reg,
		inFlight:              reg.Gauge("http.in_flight"),
		requests:              reg.Counter("http.requests_total"),
		errors:                reg.Counter("http.errors_total"),
		panics:                reg.Counter("http.panics_total"),
		shed:                  reg.Counter("http.shed_total"),
		canceled:              reg.Counter("http.canceled_total"),
		misrouted:             reg.Counter("http.misrouted_total"),
		batches:               reg.Counter("batch.requests_total"),
		batchPages:            reg.Counter("batch.pages_total"),
		relearnJobs:           reg.Counter("relearn.jobs_total"),
		relearnFailures:       reg.Counter("relearn.failures_total"),
		relearnCanaryRejects:  reg.Counter("relearn.canary_rejects_total"),
		relearnSwaps:          reg.Counter("relearn.swaps_total"),
		relearnCircuitOpen:    reg.Counter("relearn.circuit_open_total"),
		relearnReservoirPages: reg.Gauge("relearn.reservoir_pages"),
		relearnReservoirBytes: reg.Gauge("relearn.reservoir_bytes"),
		extractInFlight:       reg.Gauge("extract.in_flight"),
		queueWait:             reg.Histogram("extract.queue_wait", nil),
		engines:               map[string]*engineMetrics{},
	}
}

// Registry returns the underlying obs.Registry (e.g. to Publish it on
// expvar).
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// InFlight returns the number of requests currently being served.
func (m *Metrics) InFlight() int64 { return m.inFlight.Value() }

// Uptime returns the time since the metrics (and in practice the service)
// started.
func (m *Metrics) Uptime() time.Duration { return time.Since(m.start) }

// engine returns the per-engine metric set, creating it on first use.
func (m *Metrics) engine(name string) *engineMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	em, ok := m.engines[name]
	if !ok {
		prefix := "engine." + name + "."
		em = &engineMetrics{
			requests:  m.reg.Counter(prefix + "requests"),
			errors:    m.reg.Counter(prefix + "errors"),
			sections:  m.reg.Counter(prefix + "sections"),
			records:   m.reg.Counter(prefix + "records"),
			latency:   m.reg.Histogram(prefix+"latency", nil),
			verdict:   m.reg.Gauge(prefix + "quality.verdict"),
			anomalyBP: m.reg.Gauge(prefix + "quality.anomaly_rate_bp"),
			empty:     m.reg.Counter(prefix + "quality.empty_total"),
		}
		m.engines[name] = em
	}
	return em
}

// metricsResponse is the wire form of GET /metrics.
type metricsResponse struct {
	UptimeSeconds float64        `json:"uptime_seconds"`
	Metrics       obs.Snapshot   `json:"metrics"`
	TreeCache     *treeCacheJSON `json:"tree_cache,omitempty"`
	Pools         *poolsJSON     `json:"pools,omitempty"`
	Excache       *excacheJSON   `json:"excache,omitempty"`
	Relearn       *relearnJSON   `json:"relearn,omitempty"`
}

// relearnJSON reports the self-healing lifecycle.
type relearnJSON struct {
	Enabled bool `json:"enabled"`
	relearn.Stats
}

// excacheJSON reports the content-addressed extraction result cache.
type excacheJSON struct {
	Enabled bool    `json:"enabled"`
	HitRate float64 `json:"hit_rate"`
	excache.Stats
}

func excacheSnapshot(c *excache.Cache) *excacheJSON {
	s := c.Stats()
	return &excacheJSON{Enabled: c != nil, HitRate: s.HitRate(), Stats: s}
}

// poolsJSON reports the process-wide per-request memory pools of the
// extraction fast path: parse arenas, render scratches and apply
// scratches (see dom.Arena and the DESIGN notes on arena soundness).
type poolsJSON struct {
	ParseArena    dom.ArenaStats            `json:"parse_arena"`
	RenderScratch layout.ScratchStats       `json:"render_scratch"`
	ApplyScratch  wrapper.ApplyScratchStats `json:"apply_scratch"`
	// Prune is the candidate-location pass (runs, skipped subtrees,
	// matcher pool).
	Prune prune.Stats `json:"prune"`
}

func poolsSnapshot() *poolsJSON {
	return &poolsJSON{
		ParseArena:    dom.ArenaStatsSnapshot(),
		RenderScratch: layout.ScratchStatsSnapshot(),
		ApplyScratch:  wrapper.ApplyScratchStatsSnapshot(),
		Prune:         prune.StatsSnapshot(),
	}
}

// treeCacheJSON reports the process-wide tree-distance memoization cache.
type treeCacheJSON struct {
	HitRate float64 `json:"hit_rate"`
	editdist.CacheStats
}

func treeCacheSnapshot() *treeCacheJSON {
	s := editdist.Stats()
	return &treeCacheJSON{HitRate: s.HitRate(), CacheStats: s}
}

// snapshot returns the /metrics payload.  c is the registry's extraction
// cache, rc the relearn controller (each nil when disabled).
func (m *Metrics) snapshot(c *excache.Cache, rc *relearn.Controller) metricsResponse {
	rs := rc.Stats() // nil-safe: zero stats when disabled
	m.relearnReservoirPages.Set(rs.ReservoirPages)
	m.relearnReservoirBytes.Set(rs.ReservoirBytes)
	return metricsResponse{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Metrics:       m.reg.Snapshot(),
		TreeCache:     treeCacheSnapshot(),
		Pools:         poolsSnapshot(),
		Excache:       excacheSnapshot(c),
		Relearn:       &relearnJSON{Enabled: rc != nil, Stats: rs},
	}
}

// ratio returns num/den as a percentage, 0 when the denominator is zero —
// the guard every hit_rate-style computation on this page goes through.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// perSecond returns n per uptime second, 0 while the uptime is still too
// short to divide by meaningfully.
func perSecond(n int64, uptime time.Duration) float64 {
	secs := uptime.Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(n) / secs
}

// StatusInfo is the registry-side input to /statusz: the loaded engines
// with their generations, the drift tracker, the extraction cache counters
// and the shard assignment.
type StatusInfo struct {
	Engines     []string
	Status      map[string]EngineStatus
	Parallelism int
	Quality     *quality.Tracker
	Cache       excache.Stats
	CacheOn     bool
	ShardIndex  int
	ShardCount  int
	Sharded     bool
	Relearn     relearn.Stats
	RelearnOn   bool
}

// writeStatusz renders the human-readable status page: uptime, in-flight
// count, pipeline parallelism, shard assignment, the extraction and
// tree-distance cache counters, pool reuse rates, and a deterministically
// sorted per-engine table of request counts, uptime-relative request
// rates, latency quantiles, wrapper generations with last-swap ages and
// drift verdicts.
func (m *Metrics) writeStatusz(w io.Writer, info StatusInfo) {
	uptime := m.Uptime()
	fmt.Fprintf(w, "mse-serve status\n")
	fmt.Fprintf(w, "uptime:    %s\n", uptime.Round(time.Second))
	fmt.Fprintf(w, "in-flight: %d\n", m.InFlight())
	fmt.Fprintf(w, "requests:  %d (%.2f/s)\n",
		m.requests.Value(), perSecond(m.requests.Value(), uptime))
	fmt.Fprintf(w, "faults: panics=%d shed=%d canceled=%d misrouted=%d extract-in-flight=%d\n",
		m.panics.Value(), m.shed.Value(), m.canceled.Value(), m.misrouted.Value(),
		m.extractInFlight.Value())
	if info.Sharded {
		fmt.Fprintf(w, "shard: %d/%d (consistent hashing, %d vnodes/shard)\n",
			info.ShardIndex, info.ShardCount, shard.VirtualNodes)
	}
	if info.Parallelism <= 0 {
		fmt.Fprintf(w, "parallelism: GOMAXPROCS (%d)\n", runtime.GOMAXPROCS(0))
	} else {
		fmt.Fprintf(w, "parallelism: %d\n", info.Parallelism)
	}
	cs := info.Cache
	fmt.Fprintf(w, "excache: enabled=%v entries=%d bytes=%d/%d hits=%d misses=%d collapsed=%d evictions=%d invalidated=%d hit-rate=%.1f%%\n",
		info.CacheOn, cs.Entries, cs.Bytes, cs.MaxBytes, cs.Hits, cs.Misses,
		cs.Collapsed, cs.Evictions, cs.Invalidated, 100*cs.HitRate())
	fmt.Fprintf(w, "batch: requests=%d pages=%d\n", m.batches.Value(), m.batchPages.Value())
	rs := info.Relearn
	fmt.Fprintf(w, "relearn: enabled=%v jobs=%d failures=%d canary-rejects=%d swaps=%d degraded=%d active=%d reservoir=%dp/%dB\n",
		info.RelearnOn, rs.Jobs, rs.Failures, rs.CanaryRejects, rs.Swaps,
		rs.Degraded, rs.Active, rs.ReservoirPages, rs.ReservoirBytes)
	tc := treeCacheSnapshot()
	fmt.Fprintf(w, "tree-cache: entries=%d lookups=%d identical=%d hits=%d misses=%d early-exits=%d evictions=%d hit-rate=%.1f%%\n",
		tc.Entries, tc.Lookups, tc.Identical, tc.Hits, tc.Misses,
		tc.EarlyExits, tc.Evictions, 100*tc.HitRate)
	ps := poolsSnapshot()
	fmt.Fprintf(w, "pools: parse(acquires=%d reuses=%d releases=%d reuse-rate=%.1f%%) render(acquires=%d reuses=%d releases=%d reuse-rate=%.1f%%) apply(acquires=%d reuses=%d reuse-rate=%.1f%%)\n",
		ps.ParseArena.Acquires, ps.ParseArena.Reuses, ps.ParseArena.Releases,
		ratio(ps.ParseArena.Reuses, ps.ParseArena.Acquires),
		ps.RenderScratch.Acquires, ps.RenderScratch.Reuses, ps.RenderScratch.Releases,
		ratio(ps.RenderScratch.Reuses, ps.RenderScratch.Acquires),
		ps.ApplyScratch.Acquires, ps.ApplyScratch.Reuses,
		ratio(ps.ApplyScratch.Reuses, ps.ApplyScratch.Acquires))
	fmt.Fprintf(w, "engines:   %d\n\n", len(info.Engines))

	// Show every loaded engine, including ones never hit, plus any
	// engine that collected metrics before being removed; the merged set
	// is sorted so consecutive scrapes are diffable.
	m.mu.Lock()
	names := map[string]bool{}
	for _, n := range info.Engines {
		names[n] = true
	}
	for n := range m.engines {
		names[n] = true
	}
	m.mu.Unlock()
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	fmt.Fprintf(w, "%-20s %9s %7s %7s %9s %9s %9s %9s %9s %4s %10s %9s\n",
		"engine", "requests", "req/s", "errors", "sections", "records", "p50", "p90", "p99", "gen", "last-swap", "verdict")
	for _, n := range sorted {
		em := m.engine(n)
		gen, swap := "-", "-"
		if st, ok := info.Status[n]; ok {
			gen = fmt.Sprintf("%d", st.Generation)
			swap = time.Since(st.SwappedAt).Round(time.Second).String() + " ago"
		}
		fmt.Fprintf(w, "%-20s %9d %7.2f %7d %9d %9d %9s %9s %9s %4s %10s %9s\n",
			n, em.requests.Value(), perSecond(em.requests.Value(), uptime),
			em.errors.Value(),
			em.sections.Value(), em.records.Value(),
			fmtQuantile(em.latency, 0.50),
			fmtQuantile(em.latency, 0.90),
			fmtQuantile(em.latency, 0.99),
			gen, swap,
			info.Quality.Verdict(n))
	}
}

func fmtQuantile(h *obs.Histogram, q float64) string {
	if h.Count() == 0 {
		return "-"
	}
	return h.Quantile(q).Round(100 * time.Microsecond).String()
}
