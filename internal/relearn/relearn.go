// Package relearn closes the detect/adapt loop over drifting wrappers: it
// is the *adapt* half to internal/quality's *detect* half, after "Design of
// Automatically Adaptable Web Wrappers" (Ferrara & Baumgartner).  The
// quality tracker tells us a wrapper no longer matches the template its
// engine is serving; this package heals it without an operator in the loop:
//
//  1. A bounded per-engine reservoir samples recent raw request pages off
//     the serving path — byte-budgeted, content-address-deduped, retaining
//     the serving path's own body copy (never re-copying page bytes).
//  2. On a DRIFTED verdict the controller schedules a background relearn
//     job: the wrapper-induction pipeline (core.BuildWrapperCtx) re-runs
//     over the newest sampled pages under cooperative cancellation.
//  3. The candidate wrapper is canary-validated against a held-out slice of
//     the reservoir: its non-empty-page rate, section count and record
//     count must beat the incumbent wrapper on the same pages.
//  4. Only then is the candidate hot-swapped into the registry (atomically,
//     bumping the wrapper generation so cached results are orphaned and the
//     drift baseline is re-warmed against the new template).
//
// Failures back off exponentially with jitter, capped; after MaxFailures
// consecutive failures the engine's circuit opens — it is pinned DEGRADED
// and no more automatic jobs run (no retry storm against an engine that
// cannot be relearned) until an operator triggers a manual relearn, which
// resets the circuit.
//
// The controller never blocks the serving path: reservoir feeds are a hash
// plus a slice append behind a per-engine mutex, jobs run on their own
// goroutines (one per engine at most), and every hook the serving layer
// installs is called without controller locks held.
package relearn

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"mse/internal/core"
)

// Config tunes the self-healing lifecycle.  The zero value is not usable;
// start from DefaultConfig (zero fields are filled with defaults).
type Config struct {
	// SampleBytes is the per-engine reservoir byte budget.
	SampleBytes int64 `json:"sample_bytes"`
	// MaxPages caps the per-engine reservoir page count.
	MaxPages int `json:"max_pages"`
	// MinPages is the minimum reservoir size before a relearn attempt;
	// below it the attempt fails (and backs off, waiting for traffic).
	MinPages int `json:"min_pages"`
	// TrainPages is the maximum number of sampled pages fed to wrapper
	// induction per attempt (newest pages win).
	TrainPages int `json:"train_pages"`
	// HoldoutPages is the number of sampled pages held out of training for
	// canary validation.
	HoldoutPages int `json:"holdout_pages"`
	// Backoff is the delay after the first failed attempt; it doubles per
	// consecutive failure (with ±50% jitter) up to MaxBackoff.
	Backoff    time.Duration `json:"backoff"`
	MaxBackoff time.Duration `json:"max_backoff"`
	// MaxFailures is the circuit-breaker threshold: this many consecutive
	// failures pin the engine DEGRADED until a manual trigger.
	MaxFailures int `json:"max_failures"`
	// BuildParallelism bounds the pipeline worker count of background
	// builds so a relearn cannot saturate the CPUs the serving path needs
	// (0 means 1, the background-friendly default).
	BuildParallelism int `json:"build_parallelism"`
	// JitterSeed seeds the controller's private backoff-jitter generator.
	// 0 (the default) draws a process-random seed, which is what a fleet
	// wants — per-process jitter streams decorrelate retry storms.  Tests
	// and reproducible harnesses set it to make backoff delays a pure
	// function of the failure sequence.
	JitterSeed int64 `json:"jitter_seed,omitempty"`
}

// DefaultConfig returns the serving defaults.
func DefaultConfig() Config {
	return Config{
		SampleBytes:      8 << 20,
		MaxPages:         32,
		MinPages:         6,
		TrainPages:       8,
		HoldoutPages:     3,
		Backoff:          5 * time.Second,
		MaxBackoff:       5 * time.Minute,
		MaxFailures:      5,
		BuildParallelism: 1,
	}
}

// sanitized fills zero fields with defaults and enforces the structural
// minimums (wrapper induction needs two pages, the canary needs one).
func (c Config) sanitized() Config {
	d := DefaultConfig()
	if c.SampleBytes <= 0 {
		c.SampleBytes = d.SampleBytes
	}
	if c.MaxPages <= 0 {
		c.MaxPages = d.MaxPages
	}
	if c.MinPages <= 0 {
		c.MinPages = d.MinPages
	}
	if c.MinPages < 3 {
		c.MinPages = 3 // 2 to train + 1 to hold out
	}
	if c.TrainPages < 2 {
		c.TrainPages = d.TrainPages
	}
	if c.HoldoutPages <= 0 {
		c.HoldoutPages = d.HoldoutPages
	}
	if c.Backoff <= 0 {
		c.Backoff = d.Backoff
	}
	if c.MaxBackoff < c.Backoff {
		c.MaxBackoff = d.MaxBackoff
	}
	if c.MaxBackoff < c.Backoff {
		c.MaxBackoff = c.Backoff
	}
	if c.MaxFailures <= 0 {
		c.MaxFailures = d.MaxFailures
	}
	if c.BuildParallelism <= 0 {
		c.BuildParallelism = 1
	}
	if c.MaxPages < c.MinPages {
		c.MaxPages = c.MinPages
	}
	return c
}

// Hooks are the serving-layer operations the controller drives.  Build and
// Swap are required; Incumbent and Event are optional.  All hooks are
// called without controller locks held and may be called from job
// goroutines concurrently with the serving path.
type Hooks struct {
	// Build learns a candidate wrapper from sample pages.  It must honour
	// ctx (the controller's lifetime): a closed controller cancels it.
	Build func(ctx context.Context, samples []*core.SamplePage) (*core.EngineWrapper, error)
	// Incumbent returns the currently serving wrapper for canary
	// comparison (ok=false when the engine is not registered).
	Incumbent func(engine string) (*core.EngineWrapper, bool)
	// Swap atomically installs a canary-validated candidate (serialized as
	// wrapper JSON) as the engine's serving wrapper.
	Swap func(engine string, data []byte) error
	// Event, when non-nil, receives one Event per lifecycle step (job
	// start, failure, canary reject, swap, circuit open) for journaling,
	// metrics and logs.
	Event func(ev Event)
}

// Event kinds, as they appear in the wide-event journal's "kind" field.
const (
	EventJob          = "relearn_job"
	EventFailure      = "relearn_failure"
	EventCanaryReject = "relearn_canary_reject"
	EventSwap         = "relearn_swap"
	EventCircuitOpen  = "relearn_circuit_open"
)

// Event is one lifecycle notification.
type Event struct {
	Kind    string
	Engine  string
	Attempt int    // 1-based attempt number within the current episode
	Err     string // failure detail, empty on success kinds
	Canary  *CanaryResult
}

// State is the relearn lifecycle state of one engine.
type State int

const (
	// Idle: no job scheduled; the engine heals on the next DRIFTED verdict.
	Idle State = iota
	// Running: a relearn attempt (build + canary + swap) is in flight.
	Running
	// Backoff: the last attempt failed; the job sleeps before retrying.
	Backoff
	// Degraded: the circuit is open after MaxFailures consecutive
	// failures; only a manual Trigger restarts healing.
	Degraded
)

// String names the state as it appears on /relearnz and /statusz.
func (s State) String() string {
	switch s {
	case Idle:
		return "IDLE"
	case Running:
		return "RUNNING"
	case Backoff:
		return "BACKOFF"
	case Degraded:
		return "DEGRADED"
	}
	return "UNKNOWN"
}

// MarshalJSON serializes the state as its string form.
func (s State) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// Sentinel errors for the distinguishable failure modes of an attempt.
var (
	// ErrInsufficientPages: the reservoir has not sampled enough pages yet.
	ErrInsufficientPages = errors.New("relearn: not enough sampled pages")
	// ErrCanaryRejected: the candidate did not beat the incumbent on the
	// held-out pages.
	ErrCanaryRejected = errors.New("relearn: canary rejected candidate")
	// ErrClosed: the controller has been closed.
	ErrClosed = errors.New("relearn: controller closed")
)

// Controller owns the per-engine reservoirs and relearn jobs.  All methods
// are safe for concurrent use; ObservePage, Stats and Report are nil-safe
// so the serving path can call them unconditionally.
type Controller struct {
	cfg   Config
	hooks Hooks

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	engines map[string]*engineState
	closed  bool

	// rng is the controller's private jitter source.  Sharing the global
	// math/rand stream would make backoff delays depend on every other
	// rand consumer in the process — untestable and irreproducible; a
	// seeded per-controller generator keeps them a function of the
	// controller's own draw sequence.  Guarded by rngMu: backoffs fire
	// from per-engine job goroutines concurrently.
	rngMu sync.Mutex
	rng   *rand.Rand
}

// engineState is one engine's reservoir plus job bookkeeping.  The
// reservoir has its own lock; everything else is guarded by Controller.mu.
type engineState struct {
	res *reservoir

	state    State
	busy     bool // a job goroutine (Running or Backoff) exists
	failures int  // consecutive, reset on success or manual trigger

	attempts      int64
	swaps         int64
	canaryRejects int64
	lastErr       string
	lastSwap      time.Time
	nextRetry     time.Time
	lastCanary    *CanaryResult
}

// NewController returns a controller with the given configuration (zero
// fields take defaults).  hooks.Build and hooks.Swap must be set.
func NewController(cfg Config, hooks Hooks) *Controller {
	ctx, cancel := context.WithCancel(context.Background())
	seed := cfg.JitterSeed
	if seed == 0 {
		seed = rand.Int63() // per-process stream; see Config.JitterSeed
	}
	return &Controller{
		cfg:     cfg.sanitized(),
		hooks:   hooks,
		ctx:     ctx,
		cancel:  cancel,
		engines: map[string]*engineState{},
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// Config returns the controller's effective configuration.
func (c *Controller) Config() Config { return c.cfg }

// engineLocked returns the engine's state, creating it on first use.
// Caller holds c.mu.
func (c *Controller) engineLocked(engine string) *engineState {
	es, ok := c.engines[engine]
	if !ok {
		es = &engineState{res: newReservoir(c.cfg.SampleBytes, c.cfg.MaxPages)}
		c.engines[engine] = es
	}
	return es
}

// ObservePage samples one served page into the engine's reservoir.  It is
// the serving path's feed: call it after the response has been written,
// handing over the request's own body copy (the string is retained, not
// copied).  Nil-safe and never blocks on job work.
func (c *Controller) ObservePage(engine, html string, query []string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	es := c.engineLocked(engine)
	c.mu.Unlock()
	es.res.add(html, query)
}

// NotifyDrift schedules a relearn job for the engine.  Call it when an
// engine's verdict moves to DRIFTED, after ObservePage has taken the page
// that moved it, so the job's snapshot holds that page.  A no-op when a job is already running or backing off, when the
// circuit is open (DEGRADED), or after Close.  Nil-safe.
func (c *Controller) NotifyDrift(engine string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	es := c.engineLocked(engine)
	if es.busy || es.state == Degraded {
		return
	}
	c.startLocked(engine, es)
}

// Trigger schedules a manual relearn for the engine, resetting the failure
// count and closing... reopening a DEGRADED circuit.  When a job is already
// running or backing off it only resets the failure budget (the running
// job continues with a fresh circuit allowance).  Returns the engine's
// state after the call.
func (c *Controller) Trigger(engine string) (State, error) {
	if c == nil {
		return Idle, ErrClosed
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return Idle, ErrClosed
	}
	es := c.engineLocked(engine)
	es.failures = 0
	if es.busy {
		return es.state, nil
	}
	if es.state == Degraded {
		es.state = Idle
	}
	c.startLocked(engine, es)
	return es.state, nil
}

// startLocked marks the engine busy and spawns its job goroutine.  Caller
// holds c.mu.
func (c *Controller) startLocked(engine string, es *engineState) {
	es.busy = true
	es.state = Running
	c.wg.Add(1)
	go c.run(engine, es)
}

// Close cancels every running job (cooperatively — a mid-build job aborts
// at the pipeline's next checkpoint) and waits for all job goroutines to
// exit.  Idempotent.
func (c *Controller) Close() {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	c.cancel()
	c.wg.Wait()
}

// event dispatches a lifecycle event to the Event hook, if installed.
func (c *Controller) event(ev Event) {
	if c.hooks.Event != nil {
		c.hooks.Event(ev)
	}
}

// run is one engine's relearn episode: attempt, back off on failure, stop
// on success, circuit-break after MaxFailures consecutive failures, abort
// on Close.  At most one run goroutine exists per engine (es.busy).
func (c *Controller) run(engine string, es *engineState) {
	defer c.wg.Done()
	for {
		c.mu.Lock()
		es.state = Running
		es.attempts++
		attempt := es.failures + 1
		c.mu.Unlock()
		c.event(Event{Kind: EventJob, Engine: engine, Attempt: attempt})

		canary, err := c.attempt(engine, es)
		if err == nil {
			c.mu.Lock()
			es.failures = 0
			es.state = Idle
			es.busy = false
			es.lastErr = ""
			es.lastSwap = time.Now()
			es.swaps++
			c.mu.Unlock()
			c.event(Event{Kind: EventSwap, Engine: engine, Attempt: attempt, Canary: canary})
			return
		}
		if c.ctx.Err() != nil || errors.Is(err, core.ErrCanceled) || errors.Is(err, context.Canceled) {
			// Controller closing: step aside without counting a failure.
			c.mu.Lock()
			es.state = Idle
			es.busy = false
			c.mu.Unlock()
			return
		}
		c.mu.Lock()
		es.failures++
		es.lastErr = err.Error()
		if errors.Is(err, ErrCanaryRejected) {
			es.canaryRejects++
		}
		fails := es.failures
		c.mu.Unlock()
		c.event(Event{Kind: EventFailure, Engine: engine, Attempt: fails, Err: err.Error(), Canary: canary})
		if errors.Is(err, ErrCanaryRejected) {
			c.event(Event{Kind: EventCanaryReject, Engine: engine, Attempt: fails, Err: err.Error(), Canary: canary})
		}
		if fails >= c.cfg.MaxFailures {
			c.mu.Lock()
			es.state = Degraded
			es.busy = false
			c.mu.Unlock()
			c.event(Event{Kind: EventCircuitOpen, Engine: engine, Attempt: fails,
				Err: fmt.Sprintf("%d consecutive relearn failures, last: %s", fails, err.Error())})
			return
		}
		d := c.backoff(fails)
		c.mu.Lock()
		es.state = Backoff
		es.nextRetry = time.Now().Add(d)
		c.mu.Unlock()
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-c.ctx.Done():
			t.Stop()
			c.mu.Lock()
			es.state = Idle
			es.busy = false
			c.mu.Unlock()
			return
		}
	}
}

// backoff returns the delay before retry number failures+1: Backoff
// doubled per consecutive failure, capped at MaxBackoff, with ±50% jitter
// so a fleet of drifted engines does not retry in lockstep.
func (c *Controller) backoff(failures int) time.Duration {
	d := c.cfg.Backoff
	for i := 1; i < failures && d < c.cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > c.cfg.MaxBackoff {
		d = c.cfg.MaxBackoff
	}
	c.rngMu.Lock()
	j := c.rng.Float64()
	c.rngMu.Unlock()
	return time.Duration(float64(d) * (0.5 + j))
}

// attempt runs one relearn: snapshot the reservoir, split train/holdout,
// build a candidate, canary-validate it against the incumbent, swap.  The
// returned CanaryResult is non-nil whenever validation ran (even when it
// rejected the candidate).
func (c *Controller) attempt(engine string, es *engineState) (*CanaryResult, error) {
	pages := es.res.newest(c.cfg.TrainPages + c.cfg.HoldoutPages)
	if len(pages) < c.cfg.MinPages {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrInsufficientPages, len(pages), c.cfg.MinPages)
	}
	train, holdout := splitPages(pages, c.cfg.TrainPages, c.cfg.HoldoutPages)
	samples := make([]*core.SamplePage, len(train))
	for i, p := range train {
		samples[i] = &core.SamplePage{HTML: p.html, Query: p.query}
	}
	cand, err := c.hooks.Build(c.ctx, samples)
	if err != nil {
		return nil, fmt.Errorf("build over %d pages: %w", len(train), err)
	}
	res := c.canary(engine, cand, holdout)
	c.mu.Lock()
	es.lastCanary = res
	c.mu.Unlock()
	if !res.Passed {
		return res, fmt.Errorf("%w: candidate %d/%d/%d vs incumbent %d/%d/%d (non-empty/sections/records over %d pages)",
			ErrCanaryRejected,
			res.Candidate.NonEmptyPages, res.Candidate.Sections, res.Candidate.Records,
			res.Incumbent.NonEmptyPages, res.Incumbent.Sections, res.Incumbent.Records,
			res.Pages)
	}
	data, err := json.Marshal(cand)
	if err != nil {
		return res, fmt.Errorf("serializing candidate: %w", err)
	}
	if err := c.hooks.Swap(engine, data); err != nil {
		return res, fmt.Errorf("swapping wrapper: %w", err)
	}
	return res, nil
}

// splitPages partitions a reservoir snapshot (oldest first) into train and
// holdout sets.  Holdout pages are taken at a stride through the snapshot —
// not from one end — so both sets sample the same template mix, then train
// is capped to the newest trainMax pages.  At least two pages always train
// (wrapper induction's minimum).
func splitPages(pages []pageSample, trainMax, holdoutMax int) (train, holdout []pageSample) {
	if len(pages) <= 2 {
		return pages, nil
	}
	if holdoutMax > len(pages)-2 {
		holdoutMax = len(pages) - 2
	}
	for i, p := range pages {
		if len(holdout) < holdoutMax && i%3 == 1 {
			holdout = append(holdout, p)
		} else {
			train = append(train, p)
		}
	}
	if len(train) > trainMax {
		train = train[len(train)-trainMax:]
	}
	return train, holdout
}

// CanaryScore is one wrapper's aggregate extraction outcome over the
// held-out pages.
type CanaryScore struct {
	// NonEmptyPages counts holdout pages yielding at least one section.
	NonEmptyPages int `json:"non_empty_pages"`
	Sections      int `json:"sections"`
	Records       int `json:"records"`
	// Errors counts holdout pages the wrapper failed on (scored as empty).
	Errors int `json:"errors"`
}

// CanaryResult compares the candidate against the incumbent on the same
// held-out pages.
type CanaryResult struct {
	Pages     int         `json:"pages"`
	Candidate CanaryScore `json:"candidate"`
	Incumbent CanaryScore `json:"incumbent"`
	Passed    bool        `json:"passed"`
}

// canary scores candidate and incumbent on the holdout and decides.  The
// candidate must extract something, must not lose to the incumbent on any
// signal, and must strictly beat it on at least one — a candidate that
// merely ties the incumbent is rejected (a swap would churn the cache and
// the drift baseline for nothing).
func (c *Controller) canary(engine string, cand *core.EngineWrapper, holdout []pageSample) *CanaryResult {
	res := &CanaryResult{Pages: len(holdout)}
	res.Candidate = c.score(cand, holdout)
	if c.hooks.Incumbent != nil {
		if inc, ok := c.hooks.Incumbent(engine); ok {
			res.Incumbent = c.score(inc, holdout)
		}
	}
	cs, is := res.Candidate, res.Incumbent
	res.Passed = cs.NonEmptyPages > 0 &&
		cs.NonEmptyPages >= is.NonEmptyPages &&
		cs.Sections >= is.Sections &&
		cs.Records >= is.Records &&
		(cs.NonEmptyPages > is.NonEmptyPages || cs.Sections > is.Sections || cs.Records > is.Records)
	return res
}

// score applies a wrapper to every holdout page, counting only — each
// page's pooled memory is released before the next, and nothing feeds the
// serving metrics or the drift tracker (a canary is an experiment, not
// traffic).
func (c *Controller) score(ew *core.EngineWrapper, holdout []pageSample) CanaryScore {
	var s CanaryScore
	for _, p := range holdout {
		secs, lease, err := ew.ExtractLeasedObs(c.ctx, p.html, p.query, nil)
		if err != nil {
			s.Errors++
			continue
		}
		lease.Release()
		if len(secs) > 0 {
			s.NonEmptyPages++
		}
		s.Sections += len(secs)
		for _, sec := range secs {
			s.Records += len(sec.Records)
		}
	}
	return s
}

// Stats is the aggregate /metrics view across all engines.
type Stats struct {
	Jobs           int64 `json:"jobs"`
	Failures       int64 `json:"failures"`
	CanaryRejects  int64 `json:"canary_rejects"`
	Swaps          int64 `json:"swaps"`
	ReservoirPages int64 `json:"reservoir_pages"`
	ReservoirBytes int64 `json:"reservoir_bytes"`
	Degraded       int64 `json:"degraded"`
	Active         int64 `json:"active"`
}

// Stats aggregates job and reservoir counters across engines.  Nil-safe.
func (c *Controller) Stats() Stats {
	var s Stats
	if c == nil {
		return s
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, es := range c.engines {
		s.Jobs += es.attempts
		s.Failures += int64(failTotal(es))
		s.CanaryRejects += es.canaryRejects
		s.Swaps += es.swaps
		pages, bytes := es.res.size()
		s.ReservoirPages += int64(pages)
		s.ReservoirBytes += bytes
		if es.state == Degraded {
			s.Degraded++
		}
		if es.busy {
			s.Active++
		}
	}
	return s
}

// failTotal derives an engine's lifetime failure count: attempts that did
// not end in a swap and are not the one currently in flight.
func failTotal(es *engineState) int {
	f := es.attempts - es.swaps
	if es.state == Running {
		f--
	}
	if f < 0 {
		f = 0
	}
	return int(f)
}

// EngineReport is one engine's /relearnz entry.
type EngineReport struct {
	Engine              string        `json:"engine"`
	State               State         `json:"state"`
	ConsecutiveFailures int           `json:"consecutive_failures"`
	Attempts            int64         `json:"attempts"`
	Swaps               int64         `json:"swaps"`
	CanaryRejects       int64         `json:"canary_rejects"`
	ReservoirPages      int           `json:"reservoir_pages"`
	ReservoirBytes      int64         `json:"reservoir_bytes"`
	LastError           string        `json:"last_error,omitempty"`
	LastSwap            string        `json:"last_swap,omitempty"`
	NextRetry           string        `json:"next_retry,omitempty"`
	LastCanary          *CanaryResult `json:"last_canary,omitempty"`
}

// Report is the /relearnz wire form.
type Report struct {
	Config  Config         `json:"config"`
	Engines []EngineReport `json:"engines"`
}

// Report snapshots every tracked engine, sorted by name.  Nil-safe.
func (c *Controller) Report() Report {
	if c == nil {
		return Report{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := Report{Config: c.cfg, Engines: make([]EngineReport, 0, len(c.engines))}
	for name, es := range c.engines {
		pages, bytes := es.res.size()
		er := EngineReport{
			Engine:              name,
			State:               es.state,
			ConsecutiveFailures: es.failures,
			Attempts:            es.attempts,
			Swaps:               es.swaps,
			CanaryRejects:       es.canaryRejects,
			ReservoirPages:      pages,
			ReservoirBytes:      bytes,
			LastError:           es.lastErr,
			LastCanary:          es.lastCanary,
		}
		if !es.lastSwap.IsZero() {
			er.LastSwap = es.lastSwap.UTC().Format(time.RFC3339Nano)
		}
		if es.state == Backoff {
			er.NextRetry = es.nextRetry.UTC().Format(time.RFC3339Nano)
		}
		rep.Engines = append(rep.Engines, er)
	}
	sort.Slice(rep.Engines, func(i, j int) bool {
		return rep.Engines[i].Engine < rep.Engines[j].Engine
	})
	return rep
}

// EngineState returns the engine's lifecycle state (Idle for an engine
// never observed).  Nil-safe.
func (c *Controller) EngineState(engine string) State {
	if c == nil {
		return Idle
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if es, ok := c.engines[engine]; ok {
		return es.state
	}
	return Idle
}
