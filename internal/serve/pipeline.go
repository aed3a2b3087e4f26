package serve

// The per-page request pipeline (DESIGN §13).  /extract runs one item
// through it, /extract/batch runs many (deduplicated by content address
// first), and Registry.ExtractCached runs one without HTTP, admission or
// journaling.  A step that fails an item sets its status and message, the
// later steps are skipped, and the endpoint writes the outcome in its own
// wire form.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"mse/internal/core"
	"mse/internal/excache"
	"mse/internal/obs"
	"mse/internal/quality"
)

// item is one page on its way through the request pipeline: the engine it
// resolved to, the page, and the outcome once a step decides it.
type item struct {
	engine string
	ent    *engineEntry
	em     *engineMetrics
	html   string
	query  []string

	jev  *JournalEvent // nil when the item is not sampled
	root *obs.Span     // stage timings for the journal; nil when unsampled
	lead *item         // the item extracting for this in-batch duplicate

	status    int           // 0 while undecided; 200 on success
	msg       string        // error message when status != 200
	mis       *misrouteJSON // the 421 answer, set by resolve
	queueWait time.Duration
	entry     *excache.Entry
	// cached marks a result served without pipeline work: a resident cache
	// hit, a collapsed miss, or an in-batch duplicate.
	cached bool
	// assessment is the drift verdict fed on the fill path; hits carry
	// none (assessed=false) — a replayed result says nothing new about the
	// engine.
	assessment quality.Assessment
	assessed   bool
}

// fail records the item's error outcome; it returns false, which ends the
// step reporting it.
func (it *item) fail(status int, msg string) bool {
	it.status, it.msg = status, msg
	return false
}

// parseQuery splits a ?q= (or batch item "q") value on '+' and spaces.
func parseQuery(q string) []string {
	if q == "" {
		return nil
	}
	return strings.FieldsFunc(q, func(r rune) bool { return r == '+' || r == ' ' })
}

// sample draws the item's journal sample.  A sampled item gets a span tree
// so the extraction records stage timings only when someone will read
// them.
func (r *Registry) sample(ctx context.Context, it *item) {
	if r.journal.Sample() {
		it.jev = &JournalEvent{RequestID: RequestID(ctx), Engine: it.engine}
		it.root = obs.NewSpan(obs.RootExtract)
	}
}

// resolve finds the item's engine wrapper.
func (r *Registry) resolve(it *item) bool {
	if it.engine == "" {
		r.metrics.errors.Inc()
		return it.fail(http.StatusBadRequest, "missing ?engine=")
	}
	if !r.Owns(it.engine) {
		it.mis = r.misroute(it.engine)
		return it.fail(http.StatusMisdirectedRequest, it.mis.Error)
	}
	ent, ok := r.get(it.engine)
	if !ok {
		// Deliberately not tracked per engine: arbitrary names in requests
		// must not grow the metrics map without bound.
		r.metrics.errors.Inc()
		return it.fail(http.StatusNotFound, fmt.Sprintf("unknown engine %q", it.engine))
	}
	it.ent = ent
	it.em = r.metrics.engine(it.engine)
	it.em.requests.Inc()
	return true
}

// misroute describes a request for an engine this shard does not own: 421
// plus the owner's index, so a thin front tier (or the client itself) can
// re-aim the request without any server-side proxying.
func (r *Registry) misroute(name string) *misrouteJSON {
	r.metrics.misrouted.Inc()
	idx, total, _ := r.ShardInfo()
	owner := r.ring.Owner(name)
	return &misrouteJSON{
		Error:      fmt.Sprintf("engine %q is owned by shard %d/%d (this is shard %d)", name, owner, total, idx),
		Engine:     name,
		OwnerShard: owner,
		Shards:     total,
	}
}

// checkSize fails a resolved item whose page is n bytes, over MaxPageBytes.
func (r *Registry) checkSize(it *item, n int) bool {
	if n <= MaxPageBytes {
		return true
	}
	it.em.errors.Inc()
	r.metrics.errors.Inc()
	return it.fail(http.StatusRequestEntityTooLarge, fmt.Sprintf("page exceeds %d bytes", MaxPageBytes))
}

// admit takes an extraction slot for the item, waiting at most the queue
// budget.  A true return must be paired with one release.
func (r *Registry) admit(ctx context.Context, it *item) bool {
	wait, err := r.limiter.acquire(ctx)
	r.metrics.queueWait.Observe(wait)
	it.queueWait = wait
	if err == nil {
		r.metrics.extractInFlight.Add(1)
		return true
	}
	if errors.Is(err, errShed) {
		r.metrics.shed.Inc()
		return it.fail(http.StatusTooManyRequests, "server at capacity, retry later")
	}
	// Client gone (or deadline up) while queued: its problem, not the
	// engine's — per-engine error counters stay clean.
	r.metrics.canceled.Inc()
	return it.fail(statusClientClosedRequest, "request canceled while queued")
}

// release frees the slot of a successful admit.
func (r *Registry) release() {
	r.metrics.extractInFlight.Add(-1)
	r.limiter.release()
}

// extract is the one extraction step every serving surface shares: it
// consults the content-addressed cache (when installed) and, on a miss,
// runs the full pipeline, serializes the response once, feeds the
// per-engine metrics and the drift detector, and caches the entry.
// Concurrent identical misses collapse to one pipeline run.
func (r *Registry) extract(ctx context.Context, it *item) {
	fill := func() (*excache.Entry, error) {
		start := time.Now()
		sections, lease, err := it.ent.ew.ExtractLeasedObs(ctx, it.html, it.query, it.root)
		elapsed := time.Since(start)
		it.em.latency.Observe(elapsed)
		if err != nil {
			if errors.Is(err, core.ErrCanceled) {
				// The pipeline aborted cooperatively; every pooled resource
				// is already back (ExtractLeasedObs releases on the way
				// out).  The drift detector does not see this page: a
				// vanished client or an expired deadline says nothing about
				// the engine.
				return nil, err
			}
			it.em.errors.Inc()
			r.metrics.errors.Inc()
			r.observe(it, quality.Observation{Latency: elapsed, Err: true})
			return nil, err
		}
		// Deferred — not called right after serialization — so a panic while
		// building the entry still returns the page and its parse arena to
		// the pools.  The entry holds only plain bytes, so it outlives the
		// lease (and any number of future cache hits) regardless.
		defer lease.Release()
		if extractTestHook != nil {
			extractTestHook(it.engine)
		}
		e, err := buildEntry(it.engine, sections)
		if err != nil {
			it.em.errors.Inc()
			r.metrics.errors.Inc()
			return nil, err
		}
		it.em.sections.Add(int64(e.Sections))
		it.em.records.Add(int64(e.Records))
		if e.Sections == 0 {
			it.em.empty.Inc()
		}
		r.observe(it, quality.Observation{Sections: e.Sections, Records: e.Records, Latency: elapsed})
		return e, nil
	}
	var key excache.Key // a nil cache runs fill directly
	if r.cache != nil {
		key = excache.Key{Engine: it.engine, Gen: it.ent.gen, Hash: excache.HashPage(it.html, it.query)}
	}
	e, hit, _, err := r.cache.Do(ctx, key, fill)
	if err != nil {
		it.status, it.msg = r.extractErrorStatus(ctx, err)
		return
	}
	it.status, it.entry = http.StatusOK, e
	if hit {
		it.replayed()
	}
}

// observe feeds the drift detector and mirrors its state onto the quality
// gauges; a verdict change is worth an operator-visible log line.
func (r *Registry) observe(it *item, o quality.Observation) {
	it.assessment = r.quality.Observe(it.engine, o)
	it.assessed = true
	it.em.applyQuality(it.assessment)
	if it.assessment.Changed && r.log != nil {
		r.log.Warn("drift verdict changed",
			"engine", it.engine,
			"verdict", it.assessment.Verdict.String(),
			"anomaly_rate", it.assessment.AnomalyRate,
		)
	}
}

// replayed marks a successful item as served without pipeline work and
// adds its result to the served totals, which the miss already fed once.
func (it *item) replayed() {
	it.cached = true
	it.em.sections.Add(int64(it.entry.Sections))
	it.em.records.Add(int64(it.entry.Records))
}

// adopt takes the outcome of the item that extracted for this in-batch
// duplicate, keeping the duplicate's own journal event.
func (it *item) adopt() {
	lead, jev := it.lead, it.jev
	*it = *lead
	it.lead, it.jev = lead, jev
	if it.status == http.StatusOK {
		it.replayed()
	}
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

// journalItem writes a sampled item's journal line; total is the time from
// request arrival to the response write, which follows right after, so a
// client holding the response finds its line already journaled.
func (r *Registry) journalItem(it *item, total time.Duration) {
	jev := it.jev
	if jev == nil {
		return
	}
	jev.Time = nowRFC3339()
	jev.Status = it.status
	jev.Error = it.msg
	jev.PageBytes = len(it.html)
	if it.html != "" {
		jev.PageHash = pageHash(it.html)
	}
	jev.Query = it.query
	jev.QueueWaitMs = float64(it.queueWait) / float64(time.Millisecond)
	jev.TotalMs = float64(total) / float64(time.Millisecond)
	if it.status == http.StatusOK {
		jev.Sections = it.entry.Sections
		jev.Records = it.entry.Records
		jev.Cached = it.cached
	}
	if it.assessed {
		jev.Verdict = it.assessment.Verdict.String()
		jev.Anomalous = it.assessment.Anomalous
		jev.Score = it.assessment.Score
		jev.AnomalyRate = it.assessment.AnomalyRate
	}
	jev.StagesMs = stageTimings(it.root)
	r.journal.Write(*jev)
}

// afterResponse is the post-response step of an item that ran the
// pipeline: it hands a served page (the request's own body copy) to the
// relearn reservoir and then, when this page moved the engine to DRIFTED,
// notifies the relearner — in that order, so the relearn job's snapshot
// always holds the page that tripped the verdict.
func (r *Registry) afterResponse(it *item) {
	if it.status == http.StatusOK {
		r.relearn.ObservePage(it.engine, it.html, it.query)
	}
	if it.assessed && it.assessment.Changed && it.assessment.Verdict == quality.Drifted {
		r.relearn.NotifyDrift(it.engine)
	}
}

// readBody reads the request body, at most limit+1 bytes so the caller can
// tell an oversized body, into a pooled buffer the caller puts back into
// bodyPool.  The status is 0 on success; otherwise 499 when the client
// vanished (a dead request context or a body cut off mid-chunk) and 400
// for a malformed request, with the message to send.
func (r *Registry) readBody(req *http.Request, limit int64) (*bytes.Buffer, int, string) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(io.LimitReader(req.Body, limit+1))
	if err == nil {
		return buf, 0, ""
	}
	if req.Context().Err() != nil || errors.Is(err, io.ErrUnexpectedEOF) {
		r.metrics.canceled.Inc()
		return buf, statusClientClosedRequest, "client disconnected during body read"
	}
	r.metrics.errors.Inc()
	return buf, http.StatusBadRequest, "reading body: " + err.Error()
}

// handleExtract serves POST /extract: a batch of one whose page is the raw
// request body.  Admission comes before the body read, so a shed request
// costs neither an 8 MB read nor pooled memory.
func (r *Registry) handleExtract(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	params := req.URL.Query()
	it := item{engine: params.Get("engine")}
	if req.Method != http.MethodPost {
		r.metrics.errors.Inc()
		writeError(w, http.StatusMethodNotAllowed, it.engine, "POST required")
		return
	}
	ctx := req.Context()
	r.sample(ctx, &it)
	it.query = parseQuery(params.Get("q"))
	if r.resolve(&it) && r.admit(ctx, &it) {
		r.extractBody(ctx, req, &it)
	}
	r.journalItem(&it, time.Since(start))
	switch {
	case it.status == http.StatusOK:
		writeBody(w, it.entry.Body)
	case it.mis != nil:
		writeJSON(w, it.status, it.mis)
	default:
		if it.status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", r.limiter.retryAfter())
		}
		writeError(w, it.status, it.engine, it.msg)
	}
	r.afterResponse(&it)
}

// extractBody reads an admitted /extract item's page and extracts it,
// releasing the admission slot on the way out (a panic included).
func (r *Registry) extractBody(ctx context.Context, req *http.Request, it *item) {
	defer r.release()
	buf, status, msg := r.readBody(req, MaxPageBytes)
	defer bodyPool.Put(buf)
	if status != 0 {
		it.fail(status, msg)
		return
	}
	if !r.checkSize(it, buf.Len()) {
		return
	}
	// The one body copy per request: extracted text and link strings slice
	// into this string, so it cannot alias the pooled read buffer.
	it.html = buf.String()
	r.extract(ctx, it)
}

// ExtractCached runs one extraction for engine through the same pipeline
// /extract serves, bypassing HTTP, admission control and journaling.  It
// returns the serialized response body and whether it came from the
// cache.  This is the programmatic surface benchmarks and differential
// tests drive.
func (r *Registry) ExtractCached(ctx context.Context, engine, html string, query []string) ([]byte, bool, error) {
	it := item{engine: engine, html: html, query: query}
	if r.resolve(&it) && r.checkSize(&it, len(html)) {
		r.extract(ctx, &it)
	}
	r.afterResponse(&it)
	if it.status != http.StatusOK {
		return nil, false, fmt.Errorf("serve: %s", it.msg)
	}
	return it.entry.Body, it.cached, nil
}
