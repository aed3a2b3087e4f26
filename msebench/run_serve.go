package main

import (
	"context"
	"fmt"
	"time"
)

// latencyWindow is how many consecutive open-loop requests make one window
// of latency_p50_ms; p99Window, enough for a p99 with ten samples beyond
// it, makes one of the p99 that is only logged.
const (
	latencyWindow = 250
	p99Window     = 1000
)

// runServe is a serving workload: an open-loop phase at cfg.openRate for
// half the run, which gives the latency metrics, then a closed-loop phase
// with one connection per CPU for the other half, which gives items_per_s.
func runServe(ctx context.Context, cfg serveConfig, o runOpts) (*result, error) {
	if o.trace {
		return traceServe(ctx, cfg, o)
	}
	var f *fleet
	setup, err := timeSetups(func() error {
		if f != nil {
			if err := f.close(); err != nil {
				return err
			}
		}
		var err error
		f, err = setupFleet(ctx, cfg, o.seed, false, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	res, err := measureServe(ctx, f, o)
	if cerr := f.close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setup)
	return res, nil
}

// measureServe runs the timed phases of an untraced serving run and the
// checks that follow them.
func measureServe(ctx context.Context, f *fleet, o runOpts) (*result, error) {
	half := o.duration / 2
	nOpen := int(f.cfg.openRate * half.Seconds())
	interval := time.Duration(float64(time.Second) / f.cfg.openRate)
	m0, err := f.scrape(ctx)
	if err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	hs := startHeapSampler()
	open, err := openLoop(ctx, nOpen, interval, workers(), f.sender(ctx, streamOpen, false))
	peak := hs.Stop()
	if err != nil {
		return nil, fmt.Errorf("open-loop phase: %w", err)
	}
	cpu0 := processCPU()
	done, err := closedLoop(ctx, half, workers(), f.sender(ctx, streamClosed, false))
	cpu := processCPU() - cpu0
	if err != nil {
		return nil, fmt.Errorf("closed-loop phase: %w", err)
	}
	nClosed := len(done)
	rt1 := readRuntime()
	m1, err := f.scrape(ctx)
	if err != nil {
		return nil, err
	}

	perReq := 1
	if f.cfg.batch {
		perReq = batchItems
	}
	items := (nOpen + nClosed) * perReq
	// Every item of a batch has its batch's latency, so percentiles over
	// items equal percentiles over requests; they are taken per window of
	// consecutive requests.
	lat := durations(open.latency, time.Millisecond)
	latP50, err := windowed(lat, latencyWindow, p50, bestLow)
	if err != nil {
		return nil, err
	}
	latP99, err := windowed(lat, p99Window, p99, 0.5)
	if err != nil {
		return nil, err
	}
	seconds, err := perSecond(done, half)
	if err != nil {
		return nil, err
	}
	hits, misses := m1.Excache.Hits-m0.Excache.Hits, m1.Excache.Misses-m0.Excache.Misses
	if !f.cfg.batch && (hits != 0 || misses != uint64(items)) {
		return nil, fmt.Errorf("serve-miss: %d cache hits and %d misses for %d distinct pages", hits, misses, items)
	}
	if err := f.checkIdentity(ctx); err != nil {
		return nil, err
	}
	sc, err := f.scoreRefs()
	if err != nil {
		return nil, err
	}

	res := newResult(items)
	res.set("latency_p50_ms", latP50)
	res.set("items_per_s", rank(seconds, bestHigh)*float64(perReq))
	res.set("cpu_ms_per_item", float64(cpu)/1e6/float64(nClosed*perReq))
	res.set("alloc_kib_per_item", float64(rt1.allocBytes-rt0.allocBytes)/1024/float64(items))
	res.set("heap_peak_mib", peak)
	if err := res.setRecall(sc, serveFloors); err != nil {
		return nil, err
	}
	lag, _ := percentile(durations(open.lag, time.Millisecond), 0.99)
	logf("%s: open loop %d requests at %.0f/s, latency p99 %.3f ms (median of windows), send lag p99 %.3f ms; closed loop %d requests",
		f.cfg.name, nOpen, f.cfg.openRate, latP99, lag, nClosed)
	logf("%s: cache hit ratio %.4f, evictions %d per 1k items", f.cfg.name,
		ratio(float64(hits), float64(hits+misses)), 1000*(m1.Excache.Evictions-m0.Excache.Evictions)/uint64(items))
	if f.cfg.batch {
		logf("%s: in-batch duplicate share %.4f", f.cfg.name, f.pop.dupShare(f.seed, streamOpen, nOpen))
	}
	return res, nil
}
