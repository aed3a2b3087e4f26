// Package quality scores the health of each engine wrapper on the serving
// path and detects template drift.  The paper's wrappers are learned once
// from sample pages, but real SERP templates change; when they do, recall
// collapses silently — the extraction still "succeeds", it just returns
// fewer sections, fewer records, or nothing at all.  Following the
// detect/adapt loop of "Design of Automatically Adaptable Web Wrappers"
// (Ferrara & Baumgartner), this package implements the detect half: a
// streaming per-engine baseline of structural extraction signals, a
// per-page anomaly test against that baseline, and a hysteresis-guarded
// verdict (OK / SUSPECT / DRIFTED) that a relearner can act on.
//
// Signals per extraction: sections per page, records per page, and whether
// the extraction came back empty.  Apply latency is tracked beside them
// and reported on /driftz, but the anomaly test never reads it: a slow
// page is not a drifted one.  Baselines are
// obs.EWMA estimates — exact (Welford) during a warm-up prefix, slowly
// exponential afterwards — so a healthy engine's natural variation is part
// of the baseline, and a page is anomalous only when its z-score against
// the learned mean/std is large, or when it is empty while the engine's
// learned empty rate is low.
//
// A single weird page proves nothing: the verdict is driven by an
// exponentially smoothed anomaly *rate* over roughly Window pages, and the
// OK→SUSPECT→DRIFTED transitions use separate enter/exit thresholds
// (hysteresis bands), so the verdict cannot flap across a boundary on
// sampling noise.  Baselines freeze while an engine is SUSPECT or DRIFTED:
// a drifted template must not be absorbed into the baseline it is being
// judged against.
package quality

import (
	"math"
	"sort"
	"sync"
	"time"

	"mse/internal/obs"
)

// Verdict is the drift state of one engine.
type Verdict int

const (
	// OK: signals track the learned baseline.
	OK Verdict = iota
	// Suspect: anomaly rate above the SUSPECT band — quality degraded or
	// early drift; keep serving, start watching.
	Suspect
	// Drifted: anomaly rate sustained above the DRIFTED band — the
	// template has very likely changed and the wrapper needs relearning.
	Drifted
)

// String names the verdict as it appears on /statusz and /driftz.
func (v Verdict) String() string {
	switch v {
	case OK:
		return "OK"
	case Suspect:
		return "SUSPECT"
	case Drifted:
		return "DRIFTED"
	}
	return "UNKNOWN"
}

// MarshalJSON serializes the verdict as its string form.
func (v Verdict) MarshalJSON() ([]byte, error) {
	return []byte(`"` + v.String() + `"`), nil
}

// Config tunes drift detection.  The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// WarmupPages is the number of pages over which the baseline is
	// learned exactly before anomaly scoring begins; the verdict is
	// pinned to OK during warm-up.
	WarmupPages int `json:"warmup_pages"`
	// Window is the effective page count of the anomaly-rate smoother
	// (alpha = 2/(Window+1)) — how many recent pages a verdict reflects.
	Window int `json:"window"`
	// PageZ is the per-page z-score threshold: a page whose section or
	// record count deviates from the baseline mean by at least PageZ
	// standard deviations is anomalous.
	PageZ float64 `json:"page_z"`
	// EmptyRateCeiling: an empty extraction counts as anomalous only when
	// the engine's learned empty rate is below this ceiling (an engine
	// that is often legitimately empty cannot drift by being empty).
	EmptyRateCeiling float64 `json:"empty_rate_ceiling"`
	// Hysteresis bands over the smoothed anomaly rate.  Enter thresholds
	// escalate, exit thresholds de-escalate; the gaps between them are
	// what prevents flapping.  Required ordering:
	// SuspectExit < DriftExit, SuspectEnter < DriftEnter,
	// SuspectExit < SuspectEnter, DriftExit < DriftEnter.
	SuspectEnter float64 `json:"suspect_enter"`
	SuspectExit  float64 `json:"suspect_exit"`
	DriftEnter   float64 `json:"drift_enter"`
	DriftExit    float64 `json:"drift_exit"`
}

// DefaultConfig returns the serving defaults: baseline learned over 24
// pages, verdicts reflecting roughly the last 16 pages, 3.5-sigma page
// anomalies, and wide hysteresis bands.
func DefaultConfig() Config {
	return Config{
		WarmupPages:      24,
		Window:           16,
		PageZ:            3.5,
		EmptyRateCeiling: 0.2,
		SuspectEnter:     0.35,
		SuspectExit:      0.10,
		DriftEnter:       0.65,
		DriftExit:        0.30,
	}
}

// sanitized fills zero fields with defaults so a partially specified
// config (e.g. only Window from a -drift-window flag) is usable.
func (c Config) sanitized() Config {
	d := DefaultConfig()
	if c.WarmupPages <= 0 {
		c.WarmupPages = d.WarmupPages
	}
	if c.Window <= 0 {
		c.Window = d.Window
	}
	if c.PageZ <= 0 {
		c.PageZ = d.PageZ
	}
	if c.EmptyRateCeiling <= 0 {
		c.EmptyRateCeiling = d.EmptyRateCeiling
	}
	if c.SuspectEnter <= 0 {
		c.SuspectEnter = d.SuspectEnter
	}
	if c.SuspectExit <= 0 {
		c.SuspectExit = d.SuspectExit
	}
	if c.DriftEnter <= 0 {
		c.DriftEnter = d.DriftEnter
	}
	if c.DriftExit <= 0 {
		c.DriftExit = d.DriftExit
	}
	return c
}

// Observation is the outcome of one served extraction.
type Observation struct {
	// Sections and Records are the extracted counts.
	Sections int
	Records  int
	// Latency is the wrapper-apply time.
	Latency time.Duration
	// Err marks a failed extraction (pipeline error, not a client error);
	// always anomalous.
	Err bool
}

// Assessment is the tracker's judgement of one observation, returned from
// Observe so callers can journal it and act on a verdict change.
type Assessment struct {
	// Verdict is the engine verdict after this observation.
	Verdict Verdict
	// Changed reports that this observation moved the verdict.
	Changed bool
	// Anomalous marks the page itself as an outlier against the baseline.
	Anomalous bool
	// Score is the page's max z-score across signals (0 during warm-up).
	Score float64
	// AnomalyRate is the smoothed anomaly rate after this observation.
	AnomalyRate float64
}

// stdFloors prevent a near-constant signal (std ≈ 0) from flagging every
// off-by-one page as an infinite-z anomaly: deviations are measured
// against at least this much spread.
const (
	sectionsStdFloor = 0.5
	recordsStdFloor  = 1.0
)

// Tracker scores extraction quality per engine.  It is safe for concurrent
// use.
type Tracker struct {
	cfg   Config
	alpha float64 // anomaly-rate smoothing factor

	mu      sync.Mutex
	engines map[string]*engineState
}

// engineState is the per-engine baseline and verdict machine.
type engineState struct {
	pages      int64
	emptyPages int64
	errors     int64

	sections  *obs.EWMA
	records   *obs.EWMA
	latencyMs *obs.EWMA
	emptyRate *obs.EWMA // observations are 0/1 per page

	anomalyRate float64
	lastScore   float64
	last        Observation
	// cleanStreak counts consecutive non-anomalous post-warm-up pages; a
	// verdict only de-escalates after a full window of clean pages, so a
	// noisy rate estimate dipping under an exit threshold cannot flap the
	// verdict on its own.
	cleanStreak int64

	verdict     Verdict
	verdictPage int64 // pages count when the verdict last changed
	transitions int64
}

// NewTracker returns a tracker with the given configuration (zero fields
// take defaults).
func NewTracker(cfg Config) *Tracker {
	cfg = cfg.sanitized()
	return &Tracker{
		cfg:     cfg,
		alpha:   2.0 / (float64(cfg.Window) + 1),
		engines: map[string]*engineState{},
	}
}

// Config returns the tracker's effective configuration.
func (t *Tracker) Config() Config { return t.cfg }

// Reset drops the engine's baselines, anomaly rate and verdict so they
// re-warm from scratch.  The wrapper-swap path calls it: a freshly
// installed wrapper must never be judged against the EWMA normal of the
// template its predecessor was learned on (nor inherit a DRIFTED verdict
// it has not earned).  The next observation re-creates the state and
// begins a new warm-up prefix.  Nil-safe.
func (t *Tracker) Reset(engine string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.engines, engine)
}

func (t *Tracker) state(engine string) *engineState {
	es, ok := t.engines[engine]
	if !ok {
		// Baseline EWMAs: exact over the warm-up prefix, then slow
		// exponential adaptation (an order of magnitude slower than the
		// anomaly smoother) so benign template evolution is absorbed but a
		// drift episode is not.
		baselineAlpha := 2.0 / (8*float64(t.cfg.Window) + 1)
		es = &engineState{
			sections:  obs.NewEWMA(baselineAlpha, t.cfg.WarmupPages),
			records:   obs.NewEWMA(baselineAlpha, t.cfg.WarmupPages),
			latencyMs: obs.NewEWMA(baselineAlpha, t.cfg.WarmupPages),
			emptyRate: obs.NewEWMA(baselineAlpha, t.cfg.WarmupPages),
		}
		t.engines[engine] = es
	}
	return es
}

// Observe folds one extraction outcome into the engine's signals and
// returns the resulting assessment.  A nil tracker ignores the observation
// and reports a zero Assessment, so serving code can call it
// unconditionally.
func (t *Tracker) Observe(engine string, o Observation) Assessment {
	if t == nil {
		return Assessment{}
	}
	t.mu.Lock()
	es := t.state(engine)
	es.pages++
	es.last = o
	if o.Err {
		es.errors++
	}
	empty := !o.Err && o.Sections == 0
	if empty {
		es.emptyPages++
	}

	warmedBefore := es.pages > int64(t.cfg.WarmupPages)
	anomalous, score := false, 0.0
	if warmedBefore {
		anomalous, score = t.assess(es, o, empty)
	}
	es.lastScore = score
	if anomalous {
		es.cleanStreak = 0
	} else if warmedBefore {
		es.cleanStreak++
	}

	// Baselines learn during warm-up unconditionally; afterwards only
	// healthy, in-distribution pages update them.
	if !warmedBefore || (!anomalous && es.verdict == OK) {
		if !o.Err {
			es.sections.Observe(float64(o.Sections))
			es.records.Observe(float64(o.Records))
			es.latencyMs.Observe(float64(o.Latency) / float64(time.Millisecond))
			if empty {
				es.emptyRate.Observe(1)
			} else {
				es.emptyRate.Observe(0)
			}
		}
	}

	if warmedBefore {
		x := 0.0
		if anomalous {
			x = 1
		}
		es.anomalyRate += t.alpha * (x - es.anomalyRate)
	}

	changed := t.updateVerdict(es, warmedBefore)
	a := Assessment{
		Verdict:     es.verdict,
		Changed:     changed,
		Anomalous:   anomalous,
		Score:       score,
		AnomalyRate: es.anomalyRate,
	}
	t.mu.Unlock()
	return a
}

// assess scores one post-warm-up page against the baseline.
func (t *Tracker) assess(es *engineState, o Observation, empty bool) (bool, float64) {
	if o.Err {
		// A pipeline failure is categorically anomalous.
		return true, t.cfg.PageZ
	}
	if empty {
		if es.emptyRate.Mean() < t.cfg.EmptyRateCeiling {
			return true, t.cfg.PageZ
		}
		// The engine is often legitimately empty; an empty page carries no
		// structural evidence either way.
		return false, 0
	}
	zs := zScore(float64(o.Sections), es.sections, sectionsStdFloor)
	zr := zScore(float64(o.Records), es.records, recordsStdFloor)
	score := math.Max(zs, zr)
	return score >= t.cfg.PageZ, score
}

func zScore(x float64, e *obs.EWMA, floor float64) float64 {
	std := e.Std()
	if std < floor {
		std = floor
	}
	return math.Abs(x-e.Mean()) / std
}

// updateVerdict runs the hysteresis state machine and reports whether the
// verdict changed.
func (t *Tracker) updateVerdict(es *engineState, warmed bool) bool {
	if !warmed {
		return false
	}
	// De-escalation needs both a low rate and a full window of clean
	// pages: the rate estimate alone has enough variance that, with
	// traffic sitting near a threshold, it can graze the exit band.
	calm := es.cleanStreak >= int64(t.cfg.Window)
	next := es.verdict
	switch es.verdict {
	case OK:
		// A step change violent enough to cross both bands between two
		// observations still passes through SUSPECT and reaches DRIFTED
		// one page later: OK never escalates past SUSPECT directly.
		if es.anomalyRate >= t.cfg.SuspectEnter {
			next = Suspect
		}
	case Suspect:
		if es.anomalyRate >= t.cfg.DriftEnter {
			next = Drifted
		} else if calm && es.anomalyRate <= t.cfg.SuspectExit {
			next = OK
		}
	case Drifted:
		if calm && es.anomalyRate <= t.cfg.DriftExit {
			next = Suspect
		}
	}
	if next == es.verdict {
		return false
	}
	es.verdict = next
	es.verdictPage = es.pages
	es.transitions++
	return true
}

// Verdict returns the engine's current verdict (OK for an engine never
// observed).  Nil-safe.
func (t *Tracker) Verdict(engine string) Verdict {
	if t == nil {
		return OK
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if es, ok := t.engines[engine]; ok {
		return es.verdict
	}
	return OK
}

// Stat is a mean/std pair of one baseline signal.
type Stat struct {
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
}

func stat(e *obs.EWMA) Stat {
	s := e.Snapshot()
	return Stat{Mean: s.Mean, Std: s.Std}
}

// EngineReport is the drift report for one engine, the /driftz wire form.
type EngineReport struct {
	Engine      string  `json:"engine"`
	Verdict     Verdict `json:"verdict"`
	Pages       int64   `json:"pages"`
	Warmed      bool    `json:"warmed"`
	AnomalyRate float64 `json:"anomaly_rate"`
	LastScore   float64 `json:"last_score"`
	// PagesSinceChange counts pages observed since the verdict last
	// changed (equals Pages while the verdict has never changed).
	PagesSinceChange int64 `json:"pages_since_change"`
	Transitions      int64 `json:"transitions"`
	EmptyPages       int64 `json:"empty_pages"`
	Errors           int64 `json:"errors"`
	Baseline         struct {
		Sections  Stat    `json:"sections"`
		Records   Stat    `json:"records"`
		LatencyMs Stat    `json:"latency_ms"`
		EmptyRate float64 `json:"empty_rate"`
	} `json:"baseline"`
	Last struct {
		Sections  int     `json:"sections"`
		Records   int     `json:"records"`
		LatencyMs float64 `json:"latency_ms"`
	} `json:"last"`
}

// Report is the full machine-readable drift report.
type Report struct {
	Config  Config         `json:"config"`
	Engines []EngineReport `json:"engines"`
}

// Report snapshots every tracked engine, sorted by name.  Nil-safe: a nil
// tracker reports no engines.
func (t *Tracker) Report() Report {
	if t == nil {
		return Report{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rep := Report{Config: t.cfg, Engines: make([]EngineReport, 0, len(t.engines))}
	for name, es := range t.engines {
		er := EngineReport{
			Engine:           name,
			Verdict:          es.verdict,
			Pages:            es.pages,
			Warmed:           es.pages > int64(t.cfg.WarmupPages),
			AnomalyRate:      es.anomalyRate,
			LastScore:        es.lastScore,
			PagesSinceChange: es.pages - es.verdictPage,
			Transitions:      es.transitions,
			EmptyPages:       es.emptyPages,
			Errors:           es.errors,
		}
		er.Baseline.Sections = stat(es.sections)
		er.Baseline.Records = stat(es.records)
		er.Baseline.LatencyMs = stat(es.latencyMs)
		er.Baseline.EmptyRate = es.emptyRate.Mean()
		er.Last.Sections = es.last.Sections
		er.Last.Records = es.last.Records
		er.Last.LatencyMs = float64(es.last.Latency) / float64(time.Millisecond)
		rep.Engines = append(rep.Engines, er)
	}
	sort.Slice(rep.Engines, func(i, j int) bool {
		return rep.Engines[i].Engine < rep.Engines[j].Engine
	})
	return rep
}
