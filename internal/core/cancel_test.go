package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"mse/internal/dom"
	"mse/internal/layout"
	"mse/internal/obs"
	"mse/internal/prune"
	"mse/internal/synth"
)

// heavyEngine generates the pathological training set for the
// cancellation tests: pages with enough records and sections that the
// uncanceled pipeline runs for over a second, so an interrupt demonstrably
// cuts it short.
var heavyEngine = struct {
	once    sync.Once
	samples []*SamplePage
	build   time.Duration // uncanceled BuildWrapper wall time
}{}

func heavySamples(t *testing.T) ([]*SamplePage, time.Duration) {
	t.Helper()
	heavyEngine.once.Do(func() {
		// Crank every section up to hundreds of records per page: the
		// cluster stage's tree-edit distances over the resulting record
		// forests make the uncanceled build take on the order of seconds.
		e := synth.NewEngine(400, 6, true)
		for _, ss := range e.Schema.Sections {
			ss.MinRecords, ss.MaxRecords = 150, 180
		}
		for q := 0; q < 6; q++ {
			gp := e.Page(q)
			heavyEngine.samples = append(heavyEngine.samples,
				&SamplePage{HTML: gp.HTML, Query: gp.Query})
		}
		start := time.Now()
		if _, err := BuildWrapper(heavyEngine.samples, DefaultOptions()); err != nil {
			panic(err)
		}
		heavyEngine.build = time.Since(start)
	})
	return heavyEngine.samples, heavyEngine.build
}

// poolBalance captures the acquire/release deltas of every pooled resource
// on the extraction path.
type poolBalance struct {
	arenaAcq, arenaRel     uint64
	scratchAcq, scratchRel uint64
}

func poolCounters() poolBalance {
	a := dom.ArenaStatsSnapshot()
	s := layout.ScratchStatsSnapshot()
	return poolBalance{a.Acquires, a.Releases, s.Acquires, s.Releases}
}

// assertPoolsBalanced checks that everything acquired since before went
// back to the pools.
func assertPoolsBalanced(t *testing.T, before poolBalance) {
	t.Helper()
	after := poolCounters()
	if acq, rel := after.arenaAcq-before.arenaAcq, after.arenaRel-before.arenaRel; acq != rel {
		t.Fatalf("arena leak: %d acquired, %d released", acq, rel)
	}
	if acq, rel := after.scratchAcq-before.scratchAcq, after.scratchRel-before.scratchRel; acq != rel {
		t.Fatalf("render scratch leak: %d acquired, %d released", acq, rel)
	}
}

// assertGoroutinesSettle waits for the goroutine count to come back to
// (near) the baseline; worker-pool goroutines must not outlive a canceled
// pipeline.
func assertGoroutinesSettle(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// cancelLatencyBudget is the promptness bound on cooperative
// cancellation: 100ms of real time, scaled up under the race detector
// (whose instrumentation slows the pipeline by an order of magnitude
// without changing the checkpoint density being tested).
func cancelLatencyBudget() time.Duration {
	if raceEnabled {
		return 2 * time.Second
	}
	return 100 * time.Millisecond
}

// TestBuildWrapperCtxCancelMidRun cancels the context while the pipeline
// is deep in work and requires the abort to land within 100ms, with no
// leaked goroutines or pooled memory.
func TestBuildWrapperCtxCancelMidRun(t *testing.T) {
	samples, buildTime := heavySamples(t)
	if buildTime < 200*time.Millisecond {
		t.Skipf("uncanceled build only takes %v; too fast to interrupt meaningfully", buildTime)
	}
	baseline := runtime.NumGoroutine()
	pools := poolCounters()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type result struct {
		ew  *EngineWrapper
		err error
	}
	done := make(chan result, 1)
	go func() {
		ew, err := BuildWrapperCtx(ctx, samples, DefaultOptions())
		done <- result{ew, err}
	}()
	// Land the cancel mid-pipeline.
	time.Sleep(buildTime / 3)
	canceledAt := time.Now()
	cancel()
	var res result
	select {
	case res = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("BuildWrapperCtx did not return within 5s of cancellation")
	}
	latency := time.Since(canceledAt)

	if res.err == nil {
		t.Fatalf("build completed (in %v) before the cancel landed; err = nil", buildTime/3)
	}
	if !errors.Is(res.err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", res.err)
	}
	if !errors.Is(res.err, context.Canceled) {
		t.Fatalf("err = %v, want to unwrap to context.Canceled", res.err)
	}
	if res.ew != nil {
		t.Fatalf("wrapper = %v, want nil on cancellation", res.ew)
	}
	if budget := cancelLatencyBudget(); latency > budget {
		t.Fatalf("cancellation latency = %v, want < %v", latency, budget)
	}
	assertGoroutinesSettle(t, baseline)
	assertPoolsBalanced(t, pools)
}

// TestBuildWrapperCtxPreCanceled: an already-dead context aborts at the
// first checkpoint, well inside the latency budget.
func TestBuildWrapperCtxPreCanceled(t *testing.T) {
	samples, _ := heavySamples(t)
	pools := poolCounters()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	ew, err := BuildWrapperCtx(ctx, samples, DefaultOptions())
	if !errors.Is(err, ErrCanceled) || ew != nil {
		t.Fatalf("got (%v, %v), want (nil, ErrCanceled)", ew, err)
	}
	if d, budget := time.Since(start), cancelLatencyBudget(); d > budget {
		t.Fatalf("pre-canceled build took %v, want < %v", d, budget)
	}
	assertPoolsBalanced(t, pools)
}

// TestExtractCtxCancelMidRun cancels during extraction of a pathological
// page and requires a prompt ErrCanceled with every pooled resource back.
func TestExtractCtxCancelMidRun(t *testing.T) {
	// A modest training set is enough; the pathological page is the input
	// being extracted.
	e := synth.NewEngine(60, 3, true)
	var samples []*SamplePage
	for q := 0; q < 4; q++ {
		gp := e.Page(q)
		samples = append(samples, &SamplePage{HTML: gp.HTML, Query: gp.Query})
	}
	ew, err := BuildWrapper(samples, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Pathological extraction target: a page of the SAME schema but with
	// two orders of magnitude more records, so the wrapper applies and the
	// extraction genuinely grinds.
	bigEngine := synth.NewEngine(60, 3, true)
	for _, ss := range bigEngine.Schema.Sections {
		ss.MinRecords, ss.MaxRecords = 2000, 2000
	}
	big := bigEngine.Page(9)

	uncanceled := time.Now()
	_, lease, err := ew.ExtractLeasedObs(context.Background(), big.HTML, big.Query, nil)
	if err != nil {
		t.Fatal(err)
	}
	lease.Release()
	extractTime := time.Since(uncanceled)
	if extractTime < 20*time.Millisecond {
		t.Skipf("uncanceled extraction only takes %v; too fast to interrupt meaningfully", extractTime)
	}

	baseline := runtime.NumGoroutine()
	pools := poolCounters()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type result struct {
		sections []*Section
		err      error
	}
	done := make(chan result, 1)
	go func() {
		s, lease, err := ew.ExtractLeasedObs(ctx, big.HTML, big.Query, nil)
		lease.Release()
		done <- result{s, err}
	}()
	time.Sleep(extractTime / 3)
	canceledAt := time.Now()
	cancel()
	var res result
	select {
	case res = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ExtractLeasedObs did not return within 5s of cancellation")
	}
	latency := time.Since(canceledAt)

	if res.err == nil {
		// The extraction may legitimately have finished before the cancel
		// landed on a fast machine; that is success, not a failure of the
		// cancellation machinery.
		t.Logf("extraction finished before cancel landed (%v)", extractTime/3)
	} else {
		if !errors.Is(res.err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", res.err)
		}
		if res.sections != nil {
			t.Fatalf("sections = %v, want nil on cancellation", res.sections)
		}
		if budget := cancelLatencyBudget(); latency > budget {
			t.Fatalf("cancellation latency = %v, want < %v", latency, budget)
		}
	}
	assertGoroutinesSettle(t, baseline)
	assertPoolsBalanced(t, pools)
}

// TestExtractLeasedCtxPreCanceled: a canceled or an expired context
// yields (nil, nil, ErrCanceled), and every pooled resource acquired
// before the abort — parse arena, render scratch, prune matcher — is back
// in its pool: the lease is never handed out.
func TestExtractLeasedCtxPreCanceled(t *testing.T) {
	e := synth.NewEngine(30, 2, true)
	var samples []*SamplePage
	for q := 0; q < 3; q++ {
		gp := e.Page(q)
		samples = append(samples, &SamplePage{HTML: gp.HTML, Query: gp.Query})
	}
	ew, err := BuildWrapper(samples, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	gp := e.Page(7)
	for _, tc := range []struct {
		name  string
		ctx   context.Context
		cause error
	}{
		{"canceled", canceled, context.Canceled},
		{"expired", expired, context.DeadlineExceeded},
	} {
		pools := poolCounters()
		prBefore := prune.StatsSnapshot()
		sections, lease, err := ew.ExtractLeasedObs(tc.ctx, gp.HTML, gp.Query, nil)
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, tc.cause) {
			t.Fatalf("%s: err = %v, want ErrCanceled wrapping %v", tc.name, err, tc.cause)
		}
		if sections != nil || lease != nil {
			t.Fatalf("%s: got sections=%v lease=%v, want nil/nil", tc.name, sections, lease)
		}
		assertPoolsBalanced(t, pools)
		prAfter := prune.StatsSnapshot()
		if acq, rel := prAfter.Acquires-prBefore.Acquires, prAfter.Releases-prBefore.Releases; acq != rel {
			t.Fatalf("%s: prune matcher leak: %d acquired, %d released", tc.name, acq, rel)
		}
	}
}

// TestExtractLeasedCtxPreCanceledBothPaths: an already-canceled context
// aborts ExtractLeasedObs the same way on both extraction paths — the
// untraced one (nil root span, as the relearn canary calls it) and the
// traced one (a live root span, as Extract and the server call it) — with
// (nil, nil, ErrCanceled), and every pooled resource acquired before the
// abort is back in its pool.
func TestExtractLeasedCtxPreCanceledBothPaths(t *testing.T) {
	e := synth.NewEngine(30, 2, true)
	var samples []*SamplePage
	for q := 0; q < 3; q++ {
		gp := e.Page(q)
		samples = append(samples, &SamplePage{HTML: gp.HTML, Query: gp.Query})
	}
	ew, err := BuildWrapper(samples, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	gp := e.Page(7)
	for _, traced := range []bool{false, true} {
		var root *obs.Span
		if traced {
			root = obs.NewTracer().Start(obs.RootExtract)
		}
		pools := poolCounters()
		prBefore := prune.StatsSnapshot()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		sections, lease, err := ew.ExtractLeasedObs(ctx, gp.HTML, gp.Query, root)
		root.End()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("traced=%v: err = %v, want ErrCanceled", traced, err)
		}
		if sections != nil || lease != nil {
			t.Fatalf("traced=%v: got sections=%v lease=%v, want nil/nil", traced, sections, lease)
		}
		assertPoolsBalanced(t, pools)
		prAfter := prune.StatsSnapshot()
		if acq, rel := prAfter.Acquires-prBefore.Acquires, prAfter.Releases-prBefore.Releases; acq != rel {
			t.Fatalf("traced=%v: prune matcher leak: %d acquired, %d released", traced, acq, rel)
		}
	}
}

// TestExtractCtxBackgroundMatchesExtract: with a non-cancellable context
// ExtractLeasedObs is exactly Extract.
func TestExtractCtxBackgroundMatchesExtract(t *testing.T) {
	e := synth.NewEngine(25, 2, true)
	var samples []*SamplePage
	for q := 0; q < 3; q++ {
		gp := e.Page(q)
		samples = append(samples, &SamplePage{HTML: gp.HTML, Query: gp.Query})
	}
	ew, err := BuildWrapperCtx(context.Background(), samples, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	gp := e.Page(5)
	sections, lease, err := ew.ExtractLeasedObs(context.Background(), gp.HTML, gp.Query, nil)
	if err != nil {
		t.Fatal(err)
	}
	lease.Release()
	got, err := json.Marshal(sections)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ew.Extract(gp.HTML, gp.Query))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("ctx extraction differs from Extract\nwant: %s\ngot:  %s", want, got)
	}
}

// TestExtractLiveCancelTokenMatchesExtract runs a live (never canceled)
// token through ExtractLeasedObs and compares the extraction with
// Extract, whose background context installs no token: the cancellation
// plumbing must not perturb output.
func TestExtractLiveCancelTokenMatchesExtract(t *testing.T) {
	e := synth.NewEngine(30, 4, true)
	var samples []*SamplePage
	for q := 0; q < 5; q++ {
		gp := e.Page(q)
		samples = append(samples, &SamplePage{HTML: gp.HTML, Query: gp.Query})
	}
	ew, err := BuildWrapper(samples, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	gp := e.Page(8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sections, lease, err := ew.ExtractLeasedObs(ctx, gp.HTML, gp.Query, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	// Sections are plain strings/ints and outlive the lease by contract,
	// but marshal before release anyway to mirror callers.
	got, err := json.Marshal(sections)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ew.Extract(gp.HTML, gp.Query))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("extraction under a live cancel token differs from Extract\nwant: %s\ngot:  %s", want, got)
	}
}
