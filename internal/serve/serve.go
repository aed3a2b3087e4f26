// Package serve exposes trained MSE wrappers over HTTP — the deployment
// shape of the paper's metasearch application: component-engine wrappers
// are built offline, stored as JSON, and a long-running service extracts
// sections and records from result pages on demand.
//
//	GET  /engines                 list the loaded engine wrappers
//	GET  /healthz                 liveness
//	GET  /metrics                 JSON metrics snapshot (counters, gauges,
//	                              latency histograms with p50/p90/p95/p99,
//	                              per-engine quality gauges)
//	GET  /statusz                 human-readable uptime / per-engine table
//	                              with drift verdicts
//	GET  /driftz                  machine-readable per-engine drift report
//	GET  /relearnz                machine-readable self-healing report
//	POST /relearn/{engine}        manually trigger a relearn episode
//	POST /extract?engine=NAME&q=term+term
//	                              body: the result page HTML;
//	                              response: sections with annotated records
//	POST /extract/batch?engine=NAME
//	                              body: {"items":[{"engine","q","html"},...]}
//	                              (or a bare JSON array of items); response:
//	                              per-item results and per-item errors
//
// A single /extract is a batch of one: both endpoints, and ExtractCached,
// run each page through the one per-page pipeline in pipeline.go, so an
// item gets the same status on either endpoint and a 200 batch item
// carries the exact bytes /extract would have sent.
//
// With SetCache the registry serves byte-identical repeat pages from a
// content-addressed result cache (see internal/excache): extraction is
// deterministic per (wrapper generation, page bytes, query), so a hit
// skips parse, prune, render and wrapper application entirely.  With
// SetShard the registry owns only its consistent-hash slice of the engine
// fleet and answers requests for other engines with 421 naming the owner.
//
// Error responses are JSON objects {"error": ..., "engine": ...}.  With
// SetAccessLog the registry emits one structured log line per request
// (method, path, engine, status, bytes, duration, request_id).
//
// Every response carries an X-Request-ID header — the client's own, when
// it sent one, or a generated ID otherwise — correlating the access log,
// the wide-event journal (SetJournal) and the client's records.  Every
// extraction also feeds the per-engine drift detector (internal/quality),
// whose verdicts surface on /statusz, /driftz and the quality gauges.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"mse/internal/annotate"
	"mse/internal/core"
	"mse/internal/excache"
	"mse/internal/obs"
	"mse/internal/quality"
	"mse/internal/relearn"
	"mse/internal/shard"
)

// MaxPageBytes bounds the request body size (result pages beyond a few MB
// are not search result pages).
const MaxPageBytes = 8 << 20

// engineEntry is one registered wrapper plus its serving metadata: the raw
// wrapper JSON (for snapshots), the monotonically increasing generation
// that tags cache keys, and the time of the last swap.
type engineEntry struct {
	ew      *core.EngineWrapper
	raw     []byte
	gen     uint64
	swapped time.Time
}

// Registry holds the loaded wrappers by engine name.  It is safe for
// concurrent use; wrappers can be added or replaced while serving.
type Registry struct {
	mu       sync.RWMutex
	wrappers map[string]*engineEntry
	opts     core.Options
	metrics  *Metrics
	log      *slog.Logger
	limiter  *limiter
	quality  *quality.Tracker
	journal  *Journal
	// cache is the content-addressed extraction result cache; nil (the
	// default) serves every request through the full pipeline.
	cache *excache.Cache
	// ring is the consistent-hash ring when the registry serves one shard
	// of a larger fleet; nil means the registry owns every engine.
	ring       *shard.Ring
	shardIndex int
	// relearn is the self-healing lifecycle controller; nil (the default)
	// means drift verdicts are reported but not acted on.
	relearn *relearn.Controller
	// snapPath, when set, is where every wrapper swap persists the fleet
	// (atomic write-then-rename, serialized by snapMu) so a restart cannot
	// resurrect a wrapper a relearn or an operator already replaced.
	snapPath string
	snapMu   sync.Mutex
}

// NewRegistry returns an empty registry using the given pipeline options
// for wrapper application.  Drift detection runs with quality defaults;
// override with SetQualityConfig before serving.
func NewRegistry(opts core.Options) *Registry {
	return &Registry{
		wrappers: map[string]*engineEntry{},
		opts:     opts,
		metrics:  NewMetrics(),
		quality:  quality.NewTracker(quality.DefaultConfig()),
	}
}

// Metrics returns the registry's metrics set.
func (r *Registry) Metrics() *Metrics { return r.metrics }

// Quality returns the drift tracker feeding /driftz.
func (r *Registry) Quality() *quality.Tracker { return r.quality }

// SetQualityConfig replaces the drift-detection configuration (zero
// fields take defaults), resetting any learned baselines.  Call before
// Handler.
func (r *Registry) SetQualityConfig(cfg quality.Config) {
	r.quality = quality.NewTracker(cfg)
}

// SetJournal installs the wide-event request journal: one JSON line per
// sampled /extract request written to w (1-in-every sampling; every <= 1
// journals everything).  nil w disables journaling (the default).  Call
// before Handler.
func (r *Registry) SetJournal(w io.Writer, every int) {
	if w == nil {
		r.journal = nil
		return
	}
	r.journal = NewJournal(w, every)
}

// Journal returns the installed journal (nil when disabled).
func (r *Registry) Journal() *Journal { return r.journal }

// SetAccessLog installs a structured access logger; nil disables logging
// (the default).
func (r *Registry) SetAccessLog(l *slog.Logger) { r.log = l }

// SetLimits configures admission control for /extract: at most maxInflight
// extractions run concurrently, and a request waits at most queueTimeout
// for a slot before being shed with 429 and a Retry-After header.
// maxInflight <= 0 disables admission control.  Call before Handler.
func (r *Registry) SetLimits(maxInflight int, queueTimeout time.Duration) {
	r.limiter = newLimiter(maxInflight, queueTimeout)
}

// SetCache installs the content-addressed extraction result cache, bounded
// to maxBytes across all entries.  maxBytes <= 0 disables caching (the
// default).  Call before Handler.
func (r *Registry) SetCache(maxBytes int64) {
	r.cache = excache.New(maxBytes)
}

// Cache returns the installed extraction cache (nil when disabled).
func (r *Registry) Cache() *excache.Cache { return r.cache }

// SetShard declares this registry to be shard index of total in a fleet
// split by consistent hashing over engine names.  Requests for engines the
// shard does not own are answered with 421 naming the owner.  total <= 1
// restores unsharded serving.
func (r *Registry) SetShard(index, total int) error {
	if total <= 1 {
		r.ring, r.shardIndex = nil, 0
		return nil
	}
	if index < 0 || index >= total {
		return fmt.Errorf("serve: shard index %d out of range [0,%d)", index, total)
	}
	r.ring = shard.NewRing(total)
	r.shardIndex = index
	return nil
}

// Owns reports whether this registry's shard owns the engine (always true
// when unsharded).
func (r *Registry) Owns(engine string) bool {
	return r.ring == nil || r.ring.Owner(engine) == r.shardIndex
}

// ShardInfo returns (index, total, sharded).
func (r *Registry) ShardInfo() (int, int, bool) {
	if r.ring == nil {
		return 0, 1, false
	}
	return r.shardIndex, r.ring.Shards(), true
}

// Add registers (or replaces) a wrapper under the given engine name.  A
// replacement bumps the engine's generation, which orphans every cache
// entry extracted under the old wrapper — no stale hit can survive a swap.
func (r *Registry) Add(name string, data []byte) error {
	return r.addGen(name, data, 0)
}

// addGen is Add with an explicit generation (0 auto-increments); snapshot
// restore uses it to resume the generation sequence it saved.
func (r *Registry) addGen(name string, data []byte, gen uint64) error {
	ew, err := r.decode(name, data)
	if err != nil {
		return err
	}
	r.install(name, ew, data, gen)
	return nil
}

// decode parses and compiles a wrapper blob without touching the registry.
func (r *Registry) decode(name string, data []byte) (*core.EngineWrapper, error) {
	var ew core.EngineWrapper
	if err := json.Unmarshal(data, &ew); err != nil {
		return nil, fmt.Errorf("serve: wrapper %q: %w", name, err)
	}
	ew.SetOptions(r.opts)
	// Compile eagerly so the first request after a wrapper swap pays no
	// lowering cost (and signature interning happens off the hot path).
	ew.Compile()
	return &ew, nil
}

// install registers a decoded wrapper under name with the given generation
// (0 auto-increments).
func (r *Registry) install(name string, ew *core.EngineWrapper, data []byte, gen uint64) {
	raw := make([]byte, len(data))
	copy(raw, data)
	r.mu.Lock()
	prev := r.wrappers[name]
	if gen == 0 {
		gen = 1
		if prev != nil {
			gen = prev.gen + 1
		}
	}
	r.wrappers[name] = &engineEntry{ew: ew, raw: raw, gen: gen, swapped: time.Now()}
	r.mu.Unlock()
	if prev != nil {
		// Generation bumped: the engine is serving a different wrapper than
		// the one its drift baseline was learned against.  Reset the
		// baseline so the new wrapper re-warms against its own normal —
		// judging it by the old template's EWMA would flag a healthy swap
		// as drift (or hide real drift behind a stale DRIFTED verdict).
		// One in-flight old-wrapper extraction may still Observe after this
		// reset; warm-up absorbs the stray page.
		r.quality.Reset(name)
		// Reclaim the orphaned generation's bytes eagerly; correctness does
		// not depend on this (the generation is part of the cache key).
		r.cache.Invalidate(name, gen)
		// Persist the swap so a restart resumes with the new wrapper, not
		// the one it replaced.  Best-effort: the swap itself has already
		// happened, a full disk must not undo it.
		if err := r.persistSnapshot(); err != nil && r.log != nil {
			r.log.Warn("snapshot persist after swap failed", "engine", name, "error", err)
		}
	}
}

// Names lists the registered engines, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.wrappers))
	for n := range r.wrappers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// EngineStatus describes one registered engine's serving metadata.
type EngineStatus struct {
	Generation uint64    `json:"generation"`
	SwappedAt  time.Time `json:"swapped_at"`
}

// Status returns per-engine generation and last-swap time.
func (r *Registry) Status() map[string]EngineStatus {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]EngineStatus, len(r.wrappers))
	for n, e := range r.wrappers {
		out[n] = EngineStatus{Generation: e.gen, SwappedAt: e.swapped}
	}
	return out
}

// get returns the entry for an engine.
func (r *Registry) get(name string) (*engineEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.wrappers[name]
	return e, ok
}

// unitJSON is the wire form of one annotated data unit.
type unitJSON struct {
	Type string `json:"type"`
	Text string `json:"text"`
}

// recordJSON is the wire form of one record.
type recordJSON struct {
	Lines []string   `json:"lines"`
	Links []string   `json:"links,omitempty"`
	Units []unitJSON `json:"units,omitempty"`
}

// sectionJSON is the wire form of one section.
type sectionJSON struct {
	Heading string       `json:"heading,omitempty"`
	Records []recordJSON `json:"records"`
}

// extractResponse is the wire form of an /extract result.
type extractResponse struct {
	Engine   string        `json:"engine"`
	Sections []sectionJSON `json:"sections"`
}

// Handler returns the HTTP handler serving the registry.  Every request
// passes through the metrics/access-log middleware.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/engines", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, r.Names())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, r.metrics.snapshot(r.cache, r.relearn))
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		r.metrics.writeStatusz(w, r.statusInfo())
	})
	mux.HandleFunc("/driftz", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, r.quality.Report())
	})
	mux.HandleFunc("/relearnz", r.handleRelearnz)
	mux.HandleFunc("/relearn/", r.handleRelearnTrigger)
	mux.HandleFunc("/extract", r.handleExtract)
	mux.HandleFunc("/extract/batch", r.handleExtractBatch)
	return r.instrument(r.recoverer(mux))
}

// statusInfo assembles the registry-side half of the /statusz page.
func (r *Registry) statusInfo() StatusInfo {
	idx, total, sharded := r.ShardInfo()
	return StatusInfo{
		Engines:     r.Names(),
		Status:      r.Status(),
		Parallelism: r.opts.Parallelism,
		Quality:     r.quality,
		Cache:       r.cache.Stats(),
		CacheOn:     r.cache != nil,
		ShardIndex:  idx,
		ShardCount:  total,
		Sharded:     sharded,
		Relearn:     r.relearn.Stats(),
		RelearnOn:   r.relearn != nil,
	}
}

// RequestID returns the correlation ID assigned to the request by the
// instrument middleware ("" outside a served request).
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(ridKey{}).(string)
	return id
}

// statusWriter captures the response status and byte count for metrics
// and the access log, and whether the header went out — which decides
// whether the panic recoverer can still send a JSON 500.
type statusWriter struct {
	http.ResponseWriter
	status      int
	bytes       int64
	wroteHeader bool
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.wroteHeader = true
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wroteHeader = true
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// recoverer wraps h so a panicking handler takes down one request, not the
// process: the panic is logged with its stack, panics_total increments,
// and — when the response header has not gone out yet — the client gets a
// JSON 500.  http.ErrAbortHandler passes through untouched (it is the
// sanctioned way to abort a response and is suppressed by net/http).
// Layered inside instrument, so the recoverer sees instrument's
// statusWriter and the aborted request still produces an access-log line
// and metrics.
func (r *Registry) recoverer(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			r.metrics.panics.Inc()
			logger := r.log
			if logger == nil {
				logger = slog.Default()
			}
			logger.Error("handler panic",
				"method", req.Method,
				"path", req.URL.Path,
				"engine", req.URL.Query().Get("engine"),
				"panic", fmt.Sprint(rec),
				"stack", string(debug.Stack()),
			)
			if sw, ok := w.(*statusWriter); !ok || !sw.wroteHeader {
				writeError(w, http.StatusInternalServerError,
					req.URL.Query().Get("engine"), "internal error")
			}
		}()
		h.ServeHTTP(w, req)
	})
}

// instrument wraps h with the in-flight gauge, the total request counter,
// the correlation ID and the structured access log.  The request ID is the
// client's X-Request-ID when it sent a plausible one, a generated ID
// otherwise; either way it is echoed on the response and reachable from
// handlers via RequestID(ctx).
func (r *Registry) instrument(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		m := r.metrics
		m.inFlight.Add(1)
		defer m.inFlight.Add(-1)
		m.requests.Inc()
		rid := req.Header.Get(requestIDHeader)
		if rid == "" || len(rid) > maxRequestIDLen {
			rid = newRequestID()
		}
		w.Header().Set(requestIDHeader, rid)
		req = req.WithContext(context.WithValue(req.Context(), ridKey{}, rid))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(sw, req)
		if r.log != nil {
			r.log.Info("request",
				"method", req.Method,
				"path", req.URL.Path,
				"engine", req.URL.Query().Get("engine"),
				"status", sw.status,
				"bytes", sw.bytes,
				"duration", time.Since(start).Round(time.Microsecond),
				"request_id", rid,
			)
		}
	})
}

// errorJSON is the wire form of an error response.
type errorJSON struct {
	Error  string `json:"error"`
	Engine string `json:"engine,omitempty"`
}

func writeError(w http.ResponseWriter, status int, engine, msg string) {
	writeJSON(w, status, errorJSON{Error: msg, Engine: engine})
}

// statusClientClosedRequest is nginx's 499 "client closed request": the
// client vanished (canceled, disconnected) before the response; nobody
// will read the body, but the status keeps access logs and metrics honest.
const statusClientClosedRequest = 499

// extractTestHook, when non-nil, runs after the extraction lease is
// acquired and before the response is built.  Tests install a panicking
// hook to prove the recovery middleware turns a mid-request panic into a
// JSON 500 without leaking the lease, or a blocking hook to hold an
// admission slot open.
var extractTestHook func(engine string)

// misrouteJSON is the wire form of a 421 shard-misroute response.
type misrouteJSON struct {
	Error      string `json:"error"`
	Engine     string `json:"engine"`
	OwnerShard int    `json:"owner_shard"`
	Shards     int    `json:"shards"`
}

// buildEntry serializes sections into the exact bytes /extract writes
// (indented JSON plus trailing newline), so cached and uncached responses
// are byte-identical by construction.
func buildEntry(name string, sections []*core.Section) (*excache.Entry, error) {
	resp := extractResponse{Engine: name, Sections: make([]sectionJSON, 0, len(sections))}
	records := 0
	for _, s := range sections {
		sj := sectionJSON{Heading: s.Heading, Records: make([]recordJSON, 0, len(s.Records))}
		for _, rec := range s.Records {
			rj := recordJSON{Lines: rec.Lines, Links: rec.Links}
			for _, u := range annotate.Record(rec) {
				rj.Units = append(rj.Units, unitJSON{Type: u.Type.String(), Text: u.Text})
			}
			sj.Records = append(sj.Records, rj)
		}
		records += len(s.Records)
		resp.Sections = append(resp.Sections, sj)
	}
	body, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("serializing response: %w", err)
	}
	body = append(body, '\n')
	return &excache.Entry{Body: body, Sections: len(sections), Records: records}, nil
}

// stageTimings flattens a per-request span tree into a stage → ms map for
// the journal (nil span, nil map).
func stageTimings(root *obs.Span) map[string]float64 {
	snap := root.Snapshot()
	if snap == nil {
		return nil
	}
	out := make(map[string]float64, len(snap.Children))
	for _, c := range snap.Children {
		out[c.Name] = float64(c.Duration) / float64(time.Millisecond)
	}
	return out
}

// bodyPool recycles the request-body read buffers of /extract.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeBody writes a pre-serialized JSON response body with status 200.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// The header is already out; nothing more to do than drop the
		// connection, which the server does for us.
		return
	}
}
