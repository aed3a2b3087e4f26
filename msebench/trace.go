package main

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"mse/internal/annotate"
	"mse/internal/excache"
	"mse/internal/obs"
	"mse/internal/quality"
)

// The traced run measures each layer from outside the program: by timing
// calls into the layer's public functions on the workload's own pages, by
// the spans the program's existing hooks record (ExtractLeasedObs under a
// benchmark-owned root, BuildWrapper with Options.Obs), and by /metrics
// counter deltas.  Remainders marked _other are reported as numbers of
// their own.

// probePages is how many fresh pages the in-process probes extract.
const probePages = 1500

// probeBatches is how many serve-hot batches the request replay runs.
const probeBatches = 300

// traceServe is the traced serving run: an untraced open-loop phase, the
// same phase again with the handler timing middleware on, then the
// in-process probes.  Set-up trains with Options.Obs set, which gives the
// build layers.
func traceServe(ctx context.Context, cfg serveConfig, o runOpts) (*result, error) {
	tracer := obs.NewTracer()
	f, err := setupFleet(ctx, cfg, o.seed, true, tracer)
	if err != nil {
		return nil, err
	}
	res, err := traceFleet(ctx, f, o, tracer.Snapshot())
	if cerr := f.close(); err == nil && cerr != nil {
		err = cerr
	}
	return res, err
}

func traceFleet(ctx context.Context, f *fleet, o runOpts, builds []*obs.SpanSnapshot) (*result, error) {
	layers := buildLayers(builds)
	half := o.duration / 2
	n := int(f.cfg.openRate * half.Seconds())
	interval := time.Duration(float64(time.Second) / f.cfg.openRate)

	rt0 := readRuntime()
	plain, err := openLoop(ctx, n, interval, workers(), f.sender(ctx, streamOpen, false))
	if err != nil {
		return nil, fmt.Errorf("untraced phase: %w", err)
	}
	rt1 := readRuntime()
	perReq := 1
	if f.cfg.batch {
		perReq = batchItems
	}
	runtimeLayers(layers, rt0, rt1, n*perReq)
	lag, err := percentile(durations(plain.lag, time.Millisecond), 0.99)
	if err != nil {
		return nil, err
	}
	layers["loadgen.send_lag_p99_ms"] = lag

	f.handlerNs = make([]atomic.Int64, n)
	m0, err := f.scrape(ctx)
	if err != nil {
		return nil, err
	}
	f.tracing.Store(true)
	traced, err := openLoop(ctx, n, interval, workers(), f.sender(ctx, streamTraced, true))
	f.tracing.Store(false)
	if err != nil {
		return nil, fmt.Errorf("traced phase: %w", err)
	}
	m1, err := f.scrape(ctx)
	if err != nil {
		return nil, err
	}
	layers["trace.overhead_p50_ms"] = median(durations(traced.latency, time.Millisecond)) -
		median(durations(plain.latency, time.Millisecond))
	handler := make([]float64, n)
	transport := make([]float64, n)
	for i := range handler {
		h := time.Duration(f.handlerNs[i].Load())
		if h <= 0 {
			return nil, fmt.Errorf("traced phase: no handler time for request %d", i)
		}
		handler[i] = float64(h) / 1e3
		transport[i] = float64(traced.rtt[i]-h) / 1e3
	}
	layers["http.transport_p50_us"] = median(transport)
	hp99, err := percentile(handler, 0.99)
	if err != nil {
		return nil, err
	}
	layers["serve.handler_p50_us"] = median(handler)
	layers["serve.handler_p99_us"] = hp99
	counterLayers(layers, m0, m1, n*perReq)

	spans, err := f.probe(ctx, layers)
	if err != nil {
		return nil, err
	}
	if err := f.checkIdentity(ctx); err != nil {
		return nil, err
	}
	if _, err := f.scoreRefs(); err != nil {
		return nil, err
	}
	res := newResult(2 * n * perReq)
	res.layers = layers
	res.spans = []*obs.SpanSnapshot{spans, obs.Merge(builds)}
	return res, nil
}

// counterLayers derives the cache, prune and pool layers from /metrics
// deltas over items served.
func counterLayers(layers map[string]float64, m0, m1 cacheCounters, items int) {
	d := func(a, b uint64) float64 { return float64(b - a) }
	c0, c1 := m0.Excache, m1.Excache
	hits, misses := d(c0.Hits, c1.Hits), d(c0.Misses, c1.Misses)
	layers["excache.hit_ratio"] = ratio(hits, hits+misses)
	layers["excache.evictions_per_1k_items"] = 1000 * d(c0.Evictions, c1.Evictions) / float64(items)
	p0, p1 := m0.Pools, m1.Pools
	skel, full := d(p0.Prune.LinesSkeleton, p1.Prune.LinesSkeleton), d(p0.Prune.LinesRendered, p1.Prune.LinesRendered)
	layers["prune.skeleton_line_share"] = ratio(skel, skel+full)
	layers["prune.nodes_skipped_per_page"] = ratio(d(p0.Prune.NodesSkipped, p1.Prune.NodesSkipped), d(p0.Prune.Runs, p1.Prune.Runs))
	layers["dom.arena_reuse_ratio"] = ratio(d(p0.ParseArena.Reuses, p1.ParseArena.Reuses), d(p0.ParseArena.Acquires, p1.ParseArena.Acquires))
	layers["layout.scratch_reuse_ratio"] = ratio(d(p0.RenderScratch.Reuses, p1.RenderScratch.Reuses), d(p0.RenderScratch.Acquires, p1.RenderScratch.Acquires))
}

// probe times the public calls of each serving layer in process, on fresh
// pages of the workload (made unique like serve-miss requests), and on
// serve-hot replays batches of the popularity stream through
// Registry.ExtractCached.  It returns the merged extract span tree.
func (f *fleet) probe(ctx context.Context, layers map[string]float64) (*obs.SpanSnapshot, error) {
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	// The in-process cost of each request's items, to subtract from the
	// handler time: one miss per serve-miss request (from the miss probes
	// below); on serve-hot, the items of a replayed batch through the same
	// cache, replayed first so that the fresh probe pages do not evict the
	// working set before it.
	var perReq []float64
	if f.cfg.batch {
		for b := 0; b < probeBatches; b++ {
			var sum time.Duration
			for _, k := range f.pop.batch(f.seed, streamProbe, b) {
				p := &f.pages[k]
				t0 := time.Now()
				body, _, err := f.reg.ExtractCached(ctx, p.name, p.page.HTML, p.page.Query)
				sum += time.Since(t0)
				if err != nil || !bytes.Equal(body, f.refs[k]) {
					return nil, fmt.Errorf("probe batch %d page %d: ExtractCached differs from the reference (err %v)", b, k, err)
				}
			}
			perReq = append(perReq, us(sum))
		}
	}

	tracker := quality.NewTracker(quality.DefaultConfig())
	var hash, miss, hit, extract, other, annot, observe, fill []float64
	stage := map[string][]float64{}
	var roots []*obs.SpanSnapshot
	for k := 0; k < probePages; k++ {
		p := &f.pages[k%len(f.pages)]
		html := p.page.HTML + uniqueSuffix('p', k)
		q := p.page.Query

		t0 := time.Now()
		excache.HashPage(html, q)
		tHash := time.Since(t0)

		t0 = time.Now()
		body, cached, err := f.reg.ExtractCached(ctx, p.name, html, q)
		tMiss := time.Since(t0)
		if err != nil || cached {
			return nil, fmt.Errorf("probe page %d: ExtractCached miss: cached=%v err=%v", k, cached, err)
		}
		if !bytes.Equal(body, f.refs[k%len(f.pages)]) {
			return nil, fmt.Errorf("probe page %d (%s): ExtractCached body differs from the reference", k, p.name)
		}
		t0 = time.Now()
		_, cached, err = f.reg.ExtractCached(ctx, p.name, html, q)
		tHit := time.Since(t0)
		if err != nil || !cached {
			return nil, fmt.Errorf("probe page %d: ExtractCached repeat: cached=%v err=%v", k, cached, err)
		}

		root := obs.NewSpan(obs.RootExtract)
		secs, lease, err := f.ews[p.engine].ExtractLeasedObs(ctx, html, q, root)
		root.End()
		if err != nil {
			return nil, fmt.Errorf("probe page %d: ExtractLeasedObs: %w", k, err)
		}
		snap := root.Snapshot()
		roots = append(roots, snap)
		var children time.Duration
		for _, c := range snap.Children {
			stage[c.Name] = append(stage[c.Name], us(c.Duration))
			children += c.Duration
		}

		records := 0
		t0 = time.Now()
		for _, s := range secs {
			for _, rec := range s.Records {
				annotate.Record(rec)
			}
			records += len(s.Records)
		}
		tAnnot := time.Since(t0)
		lease.Release()

		t0 = time.Now()
		tracker.Observe(p.name, quality.Observation{Sections: len(secs), Records: records, Latency: snap.Duration})
		tObserve := time.Since(t0)

		hash = append(hash, us(tHash))
		miss = append(miss, us(tMiss))
		hit = append(hit, us(tHit))
		extract = append(extract, us(snap.Duration))
		other = append(other, us(snap.Duration-children))
		annot = append(annot, us(tAnnot))
		observe = append(observe, us(tObserve))
		fill = append(fill, us(tMiss-tHash-snap.Duration-tAnnot))
	}
	layers["excache.hash_p50_us"] = median(hash)
	layers["serve.extract_cached_miss_p50_us"] = median(miss)
	layers["serve.extract_cached_hit_p50_us"] = median(hit)
	layers["serve.fill_other_p50_us"] = median(fill)
	layers["core.extract_p50_us"] = median(extract)
	layers["core.extract_other_p50_us"] = median(other)
	for name, key := range map[string]string{
		obs.StepRender:   "core.render_p50_us",
		obs.StepPrune:    "core.prune_p50_us",
		obs.StepWrapper:  "core.wrapper_p50_us",
		obs.StepFamilies: "core.families_p50_us",
	} {
		layers[key] = median(stage[name])
	}
	layers["annotate.record_p50_us"] = median(annot)
	layers["quality.observe_p50_us"] = median(observe)

	if !f.cfg.batch {
		perReq = miss
	}
	layers["serve.request_other_p50_us"] = layers["serve.handler_p50_us"] - median(perReq)
	return obs.Merge(roots), nil
}

// buildSteps maps the nine BuildWrapper step spans to their layer metrics.
var buildSteps = []struct{ span, metric string }{
	{obs.StepRender, "layout.render_ms"},
	{obs.StepMRE, "mre.extract_ms"},
	{obs.StepDSE, "dse.run_ms"},
	{obs.StepRefine, "refine.refine_ms"},
	{obs.StepMining, "mining.mine_ms"},
	{obs.StepGranularity, "granularity.resolve_ms"},
	{obs.StepCluster, "cluster.group_ms"},
	{obs.StepWrapper, "wrapper.build_ms"},
	{obs.StepFamilies, "wrapper.families_ms"},
}

// buildLayers derives the build layers from BuildWrapper root spans: the
// per-build medians of the root and of each step span, the remainder
// (root minus the steps, which under parallelism sum worker time and can
// exceed it), and the tree edit distance counters.
func buildLayers(roots []*obs.SpanSnapshot) map[string]float64 {
	layers := map[string]float64{}
	if len(roots) == 0 {
		return layers
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	total := make([]float64, len(roots))
	other := make([]float64, len(roots))
	steps := make([][]float64, len(buildSteps))
	var calls, hits, lookups int64
	for i, r := range roots {
		rest := r.Duration
		for s, st := range buildSteps {
			d := r.Find(st.span).Duration
			steps[s] = append(steps[s], ms(d))
			rest -= d
		}
		total[i], other[i] = ms(r.Duration), ms(rest)
		calls += r.Counters["tree_dist_calls"]
		hits += r.Counters["tree_cache_hits"]
		lookups += r.Counters["tree_cache_lookups"]
	}
	layers["core.build_p50_ms"] = median(total)
	layers["core.build_other_ms"] = median(other)
	for s, st := range buildSteps {
		layers[st.metric] = median(steps[s])
	}
	layers["editdist.tree_dist_calls_per_build"] = float64(calls) / float64(len(roots))
	layers["editdist.tree_cache_hit_ratio"] = ratio(float64(hits), float64(lookups))
	return layers
}

// runtimeLayers adds the GC layers over a phase of items items.  A phase
// sees tens to hundreds of GC pauses, too few for a p99, so the pauses are
// reported as the stop-the-world CPU time they cost.
func runtimeLayers(layers map[string]float64, rt0, rt1 rtSnapshot, items int) {
	layers["runtime.gc_cycles_per_1k_items"] = 1000 * float64(rt1.gcCycles-rt0.gcCycles) / float64(items)
	layers["runtime.gc_pause_cpu_us_per_1k_items"] = 1e9 * (rt1.pauseCPU - rt0.pauseCPU) / float64(items)
}
