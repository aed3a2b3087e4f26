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
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sort"
	"strings"
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
	// The fresh tracker must keep driving the relearn controller (the hook
	// lives on the tracker, which was just replaced).
	r.wireQualityHook()
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
	var ew core.EngineWrapper
	if err := json.Unmarshal(data, &ew); err != nil {
		return fmt.Errorf("serve: wrapper %q: %w", name, err)
	}
	ew.SetOptions(r.opts)
	// Compile eagerly so the first request after a wrapper swap pays no
	// lowering cost (and signature interning happens off the hot path).
	ew.Compile()
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
	r.wrappers[name] = &engineEntry{ew: &ew, raw: raw, gen: gen, swapped: time.Now()}
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
	return nil
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

func (r *Registry) handleExtract(w http.ResponseWriter, req *http.Request) {
	name := req.URL.Query().Get("engine")
	if req.Method != http.MethodPost {
		r.metrics.errors.Inc()
		writeError(w, http.StatusMethodNotAllowed, name, "POST required")
		return
	}
	if name == "" {
		r.metrics.errors.Inc()
		writeError(w, http.StatusBadRequest, "", "missing ?engine=")
		return
	}
	if !r.Owns(name) {
		r.writeMisrouted(w, name)
		return
	}
	ent, ok := r.get(name)
	if !ok {
		// Deliberately not tracked per engine: arbitrary names in the
		// query string must not grow the metrics map without bound.
		r.metrics.errors.Inc()
		writeError(w, http.StatusNotFound, name, fmt.Sprintf("unknown engine %q", name))
		return
	}
	em := r.metrics.engine(name)
	em.requests.Inc()

	// Wide-event journal: the sampling decision is made up front so the
	// extraction below can carry a per-request span tree (stage timings)
	// only when someone will read it.  The deferred emit sees the final
	// response status via instrument's statusWriter.
	var jev *JournalEvent
	if r.journal.Sample() {
		jev = &JournalEvent{
			RequestID: RequestID(req.Context()),
			Engine:    name,
		}
		start := time.Now()
		defer func() {
			jev.Time = nowRFC3339()
			jev.TotalMs = float64(time.Since(start)) / float64(time.Millisecond)
			if sw, ok := w.(*statusWriter); ok {
				jev.Status = sw.status
			}
			r.journal.Write(*jev)
		}()
	}

	// Admission control: get an extraction slot before touching the body,
	// so a shed request costs neither an 8 MB read nor pooled memory.
	wait, err := r.limiter.acquire(req.Context())
	r.metrics.queueWait.Observe(wait)
	if jev != nil {
		jev.QueueWaitMs = float64(wait) / float64(time.Millisecond)
	}
	if err != nil {
		if errors.Is(err, errShed) {
			r.metrics.shed.Inc()
			w.Header().Set("Retry-After", r.limiter.retryAfter())
			writeError(w, http.StatusTooManyRequests, name, "server at capacity, retry later")
		} else {
			// Client gone (or deadline up) while queued: its problem, not
			// the engine's — per-engine error counters stay clean.
			r.metrics.canceled.Inc()
			writeError(w, statusClientClosedRequest, name, "request canceled while queued")
		}
		return
	}
	defer r.limiter.release()
	r.metrics.extractInFlight.Add(1)
	defer r.metrics.extractInFlight.Add(-1)

	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bodyPool.Put(buf)
	if _, err := buf.ReadFrom(io.LimitReader(req.Body, MaxPageBytes+1)); err != nil {
		// Distinguish a vanished client from a malformed request: only the
		// latter is an engine-attributed error.  A dead request context (or
		// a body cut off mid-chunk) means the client hung up on us.
		if req.Context().Err() != nil || errors.Is(err, io.ErrUnexpectedEOF) {
			r.metrics.canceled.Inc()
			writeError(w, statusClientClosedRequest, name, "client disconnected during body read")
			return
		}
		em.errors.Inc()
		r.metrics.errors.Inc()
		writeError(w, http.StatusBadRequest, name, "reading body: "+err.Error())
		return
	}
	if buf.Len() > MaxPageBytes {
		em.errors.Inc()
		r.metrics.errors.Inc()
		writeError(w, http.StatusRequestEntityTooLarge, name,
			fmt.Sprintf("page exceeds %d bytes", MaxPageBytes))
		return
	}
	var query []string
	if q := req.URL.Query().Get("q"); q != "" {
		query = strings.FieldsFunc(q, func(r rune) bool { return r == '+' || r == ' ' })
	}

	// The one body copy per request: extracted text and link strings slice
	// into this string, so it cannot alias the pooled read buffer.
	html := buf.String()

	// Journaled requests get a per-request span tree for stage timings; a
	// nil root costs nothing (obs spans are nil-safe).
	var root *obs.Span
	if jev != nil {
		jev.PageBytes = len(html)
		jev.PageHash = pageHash(html)
		jev.Query = query
		root = obs.NewSpan(obs.RootExtract)
	}

	out, err := r.extractEntry(req.Context(), name, ent, em, html, query, root)
	if err != nil {
		if jev != nil {
			jev.Error = err.Error()
			if out.assessed {
				journalQuality(jev, out.assessment)
			}
		}
		r.writeExtractError(w, req.Context(), name, err)
		return
	}
	if out.cached {
		// A cache hit serves the same sections the miss already counted
		// once; keep the served-totals counters honest either way.
		em.sections.Add(int64(out.entry.Sections))
		em.records.Add(int64(out.entry.Records))
	}
	if jev != nil {
		jev.Sections = out.entry.Sections
		jev.Records = out.entry.Records
		jev.Cached = out.cached
		if out.assessed {
			journalQuality(jev, out.assessment)
		}
		jev.StagesMs = stageTimings(root)
	}
	writeBody(w, http.StatusOK, out.entry.Body)
	// Reservoir sampling happens strictly after the response bytes are out:
	// the relearner inherits this request's one body copy (html slices into
	// nothing pooled) at zero additional latency to the client.
	r.feedRelearn(name, html, query)
}

// extractErrorStatus maps an extraction error to a status and message:
// cooperative cancellation (the pipeline's ErrCanceled or a singleflight
// waiter's own context) becomes 499/503 without touching per-engine error
// counters — a vanished client says nothing about the engine — and
// anything else is a 500 whose counters the fill path already fed.
func (r *Registry) extractErrorStatus(ctx context.Context, err error) (int, string) {
	if errors.Is(err, core.ErrCanceled) || errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) {
		r.metrics.canceled.Inc()
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return http.StatusServiceUnavailable, "deadline exceeded during extraction"
		}
		return statusClientClosedRequest, "client canceled during extraction"
	}
	return http.StatusInternalServerError, "extraction failed: " + err.Error()
}

func (r *Registry) writeExtractError(w http.ResponseWriter, ctx context.Context, name string, err error) {
	status, msg := r.extractErrorStatus(ctx, err)
	writeError(w, status, name, msg)
}

// writeMisrouted answers a request for an engine this shard does not own:
// 421 plus the owner's index, so a thin front tier (or the client itself)
// can re-aim the request without any server-side proxying.
func (r *Registry) writeMisrouted(w http.ResponseWriter, name string) {
	r.metrics.misrouted.Inc()
	idx, total, _ := r.ShardInfo()
	owner := r.ring.Owner(name)
	writeJSON(w, http.StatusMisdirectedRequest, misrouteJSON{
		Error:      fmt.Sprintf("engine %q is owned by shard %d/%d (this is shard %d)", name, owner, total, idx),
		Engine:     name,
		OwnerShard: owner,
		Shards:     total,
	})
}

// misrouteJSON is the wire form of a 421 shard-misroute response.
type misrouteJSON struct {
	Error      string `json:"error"`
	Engine     string `json:"engine"`
	OwnerShard int    `json:"owner_shard"`
	Shards     int    `json:"shards"`
}

// extractOutcome is what the shared extraction core hands back to the
// single, batch and API callers.
type extractOutcome struct {
	entry  *excache.Entry
	cached bool // served from the cache (resident hit or collapsed miss)
	// assessment is the drift verdict fed on the fill path; hits carry
	// none (assessed=false) — a replayed result says nothing new about
	// the engine.
	assessment quality.Assessment
	assessed   bool
}

// extractEntry is the one extraction path every serving surface shares:
// it consults the content-addressed cache (when installed) and, on a miss,
// runs the full pipeline, serializes the response once, feeds the
// per-engine metrics and the drift detector, and caches the entry.
// Concurrent identical misses collapse to one pipeline run.
func (r *Registry) extractEntry(ctx context.Context, name string, ent *engineEntry, em *engineMetrics, html string, query []string, root *obs.Span) (extractOutcome, error) {
	var out extractOutcome
	fill := func() (*excache.Entry, error) {
		start := time.Now()
		sections, lease, err := ent.ew.ExtractLeasedObs(ctx, html, query, root)
		elapsed := time.Since(start)
		em.latency.Observe(elapsed)
		if err != nil {
			if errors.Is(err, core.ErrCanceled) {
				// The pipeline aborted cooperatively; every pooled resource
				// is already back (ExtractLeasedObs releases on the way
				// out).  The drift detector does not see this page: a
				// vanished client or an expired deadline says nothing about
				// the engine.
				return nil, err
			}
			em.errors.Inc()
			r.metrics.errors.Inc()
			out.assessment = r.quality.Observe(name, quality.Observation{Latency: elapsed, Err: true})
			out.assessed = true
			em.applyQuality(out.assessment)
			return nil, err
		}
		// Deferred — not called right after serialization — so a panic while
		// building the entry still returns the page and its parse arena to
		// the pools.  The entry holds only plain bytes, so it outlives the
		// lease (and any number of future cache hits) regardless.
		defer lease.Release()
		if extractTestHook != nil {
			extractTestHook(name)
		}
		e, err := buildEntry(name, sections)
		if err != nil {
			em.errors.Inc()
			r.metrics.errors.Inc()
			return nil, err
		}
		em.sections.Add(int64(e.Sections))
		em.records.Add(int64(e.Records))
		if e.Sections == 0 {
			em.empty.Inc()
		}
		// Feed the drift detector and mirror its state onto the quality
		// gauges; a verdict change is worth an operator-visible log line.
		out.assessment = r.quality.Observe(name, quality.Observation{
			Sections: e.Sections,
			Records:  e.Records,
			Latency:  elapsed,
		})
		out.assessed = true
		em.applyQuality(out.assessment)
		if out.assessment.Changed && r.log != nil {
			r.log.Warn("drift verdict changed",
				"engine", name,
				"verdict", out.assessment.Verdict.String(),
				"anomaly_rate", out.assessment.AnomalyRate,
			)
		}
		return e, nil
	}
	if r.cache == nil {
		e, err := fill()
		out.entry = e
		return out, err
	}
	key := excache.Key{Engine: name, Gen: ent.gen, Hash: excache.HashPage(html, query)}
	e, hit, _, err := r.cache.Do(ctx, key, fill)
	out.entry, out.cached = e, hit
	return out, err
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

// ExtractCached runs one extraction for engine through the same cached
// path /extract serves, bypassing HTTP, admission control and journaling.
// It returns the serialized response body and whether it came from the
// cache.  This is the programmatic surface benchmarks and differential
// tests drive.
func (r *Registry) ExtractCached(ctx context.Context, engine, html string, query []string) ([]byte, bool, error) {
	if !r.Owns(engine) {
		owner := r.ring.Owner(engine)
		return nil, false, fmt.Errorf("serve: engine %q owned by shard %d, not this shard", engine, owner)
	}
	ent, ok := r.get(engine)
	if !ok {
		return nil, false, fmt.Errorf("serve: unknown engine %q", engine)
	}
	em := r.metrics.engine(engine)
	em.requests.Inc()
	out, err := r.extractEntry(ctx, engine, ent, em, html, query, nil)
	if err != nil {
		return nil, false, err
	}
	if out.cached {
		em.sections.Add(int64(out.entry.Sections))
		em.records.Add(int64(out.entry.Records))
	}
	return out.entry.Body, out.cached, nil
}

// journalQuality copies an assessment onto a journal event.
func journalQuality(jev *JournalEvent, a quality.Assessment) {
	jev.Verdict = a.Verdict.String()
	jev.Anomalous = a.Anomalous
	jev.Score = a.Score
	jev.AnomalyRate = a.AnomalyRate
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

// writeBody writes a pre-serialized JSON response body (a cache entry).
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
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
