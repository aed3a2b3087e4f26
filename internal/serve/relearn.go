package serve

// Self-healing wrapper lifecycle: the serve-side wiring of
// internal/relearn.  After the response is written — never on the
// request's critical path — the pipeline's afterResponse step feeds each
// served page into the controller's per-engine reservoir and then, when
// that page moved the drift verdict to DRIFTED, schedules a relearn job.
// A canary-validated candidate swaps in through the same Registry.Add
// path an operator would use — generation bump, cache invalidation,
// quality-baseline reset and snapshot persistence included.
//
//	GET  /relearnz            machine-readable relearn report (config,
//	                          per-engine state/attempts/canary scores)
//	POST /relearn/{engine}    manually trigger a relearn episode (also
//	                          resets a DEGRADED engine's circuit breaker)

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"strings"

	"mse/internal/core"
	"mse/internal/relearn"
)

// relearnBuildHook, when non-nil, replaces the wrapper-induction call of
// relearn jobs.  Tests inject failures (or canned wrappers) through the
// full HTTP stack without touching the pipeline.
var relearnBuildHook func(ctx context.Context, samples []*core.SamplePage) (*core.EngineWrapper, error)

// EnableRelearn turns on the self-healing lifecycle: a DRIFTED verdict
// from the drift tracker schedules a background relearn over the engine's
// sampled pages, and a canary-validated candidate is hot-swapped into the
// registry.  Call before Handler.  The returned controller is owned by
// the caller, who must Close it on shutdown to stop job goroutines.
func (r *Registry) EnableRelearn(cfg relearn.Config) *relearn.Controller {
	ctrl := relearn.NewController(cfg, relearn.Hooks{
		Build: func(ctx context.Context, samples []*core.SamplePage) (*core.EngineWrapper, error) {
			if relearnBuildHook != nil {
				return relearnBuildHook(ctx, samples)
			}
			// Serving options, but with the background-friendly worker count:
			// a relearn must not saturate the CPUs the serving path needs.
			opt := r.opts
			opt.Parallelism = cfg.BuildParallelism
			return core.BuildWrapperCtx(ctx, samples, opt)
		},
		Incumbent: func(engine string) (*core.EngineWrapper, bool) {
			ent, ok := r.get(engine)
			if !ok {
				return nil, false
			}
			return ent.ew, true
		},
		// The swap is the ordinary Add path: unmarshal + compile, generation
		// bump, cache invalidation, quality-baseline reset, snapshot persist.
		Swap: r.Add,
		Event: func(ev relearn.Event) {
			r.relearnEvent(ev)
		},
	})
	r.relearn = ctrl
	return ctrl
}

// Relearn returns the installed relearn controller (nil when disabled).
func (r *Registry) Relearn() *relearn.Controller { return r.relearn }

// relearnEvent fans one lifecycle event out to metrics, the wide-event
// journal and the operator log.  Lifecycle events are rare (per-episode,
// not per-request), so they bypass the journal's 1-in-N request sampling.
func (r *Registry) relearnEvent(ev relearn.Event) {
	logger := r.log
	if logger == nil {
		logger = slog.Default()
	}
	switch ev.Kind {
	case relearn.EventJob:
		r.metrics.relearnJobs.Inc()
		logger.Info("relearn job started", "engine", ev.Engine, "attempt", ev.Attempt)
	case relearn.EventFailure:
		r.metrics.relearnFailures.Inc()
		logger.Warn("relearn attempt failed", "engine", ev.Engine, "attempt", ev.Attempt, "error", ev.Err)
	case relearn.EventCanaryReject:
		r.metrics.relearnCanaryRejects.Inc()
	case relearn.EventSwap:
		r.metrics.relearnSwaps.Inc()
		args := []any{"engine", ev.Engine, "attempt", ev.Attempt}
		if ev.Canary != nil {
			args = append(args,
				"canary_pages", ev.Canary.Pages,
				"candidate_records", ev.Canary.Candidate.Records,
				"incumbent_records", ev.Canary.Incumbent.Records,
			)
		}
		logger.Info("relearn swapped wrapper", args...)
	case relearn.EventCircuitOpen:
		r.metrics.relearnCircuitOpen.Inc()
		logger.Warn("relearn circuit open, engine pinned DEGRADED",
			"engine", ev.Engine, "failures", ev.Attempt, "error", ev.Err)
	}
	if r.journal != nil {
		jev := JournalEvent{
			Time:      nowRFC3339(),
			RequestID: newRequestID(),
			Engine:    ev.Engine,
			Kind:      ev.Kind,
			Error:     ev.Err,
		}
		if ev.Canary != nil {
			jev.Sections = ev.Canary.Candidate.Sections
			jev.Records = ev.Canary.Candidate.Records
		}
		r.journal.Write(jev)
	}
}

// relearnzResponse is the wire form of GET /relearnz.
type relearnzResponse struct {
	Enabled bool `json:"enabled"`
	relearn.Report
}

func (r *Registry) handleRelearnz(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, relearnzResponse{
		Enabled: r.relearn != nil,
		Report:  r.relearn.Report(), // nil-safe: empty report when disabled
	})
}

// relearnTriggerResponse is the wire form of POST /relearn/{engine}.
type relearnTriggerResponse struct {
	Engine string `json:"engine"`
	State  string `json:"state"`
}

// handleRelearnTrigger serves POST /relearn/{engine}: the operator's
// manual relearn, which also resets a DEGRADED engine's circuit breaker.
// 202 is deliberate — the job runs in the background; poll /relearnz (or
// watch the journal) for the outcome.
func (r *Registry) handleRelearnTrigger(w http.ResponseWriter, req *http.Request) {
	name := strings.TrimPrefix(req.URL.Path, "/relearn/")
	if req.Method != http.MethodPost {
		r.metrics.errors.Inc()
		writeError(w, http.StatusMethodNotAllowed, name, "POST required")
		return
	}
	if name == "" || strings.Contains(name, "/") {
		r.metrics.errors.Inc()
		writeError(w, http.StatusBadRequest, "", "usage: POST /relearn/{engine}")
		return
	}
	if r.relearn == nil {
		r.metrics.errors.Inc()
		writeError(w, http.StatusConflict, name, "relearn is disabled (start with -relearn)")
		return
	}
	if !r.Owns(name) {
		writeJSON(w, http.StatusMisdirectedRequest, r.misroute(name))
		return
	}
	if _, ok := r.get(name); !ok {
		r.metrics.errors.Inc()
		writeError(w, http.StatusNotFound, name, fmt.Sprintf("unknown engine %q", name))
		return
	}
	st, err := r.relearn.Trigger(name)
	if err != nil {
		r.metrics.errors.Inc()
		writeError(w, http.StatusServiceUnavailable, name, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, relearnTriggerResponse{Engine: name, State: st.String()})
}
