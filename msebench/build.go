package main

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"mse"
	"mse/internal/core"
	"mse/internal/obs"
	"mse/internal/synth"
)

// scoredRounds is how many build rounds (of 119 engines each) make up the
// fixed item set that record_recall and section_recall are computed on.
// Every run builds at least these 1,071 engines, which also gives the
// per-build p99 its 1,000 samples.
const scoredRounds = 9

// buildWindow is how many consecutive builds make one window of
// latency_p50_ms and items_per_s.
const buildWindow = 250

// buildStats accumulates the timed builds of a build phase.
type buildStats struct {
	times  []time.Duration // one per BuildWrapper call
	cpu    time.Duration   // process CPU time inside BuildWrapper calls
	alloc  uint64          // heap bytes allocated inside BuildWrapper calls
	score  truthScore      // held-out pages of the scored rounds
	rounds int             // rounds started
	traces []*obs.SpanSnapshot
}

// buildSetup generates the first round's inputs and runs one warm-up
// build of an engine outside every round.
func buildSetup(seed uint64) ([][]*synth.GenPage, error) {
	first := buildRound(seed, 0)
	warm := synth.NewEngine(buildMasterSeed(seed, 0), len(first), true)
	if _, err := core.BuildWrapper(samplesOf(warm.Pages(trainPages)), core.DefaultOptions()); err != nil {
		return nil, fmt.Errorf("warm-up build: %w", err)
	}
	return first, nil
}

func samplesOf(pages []*synth.GenPage) []*core.SamplePage {
	out := make([]*core.SamplePage, len(pages))
	for i, p := range pages {
		out[i] = &core.SamplePage{HTML: p.HTML, Query: p.Query}
	}
	return out
}

// buildLoop builds the engines of consecutive rounds, starting at round
// r0 (whose pages are first, when non-nil), one BuildWrapper at a time,
// until d has passed and at least minRounds rounds are complete; it stops
// only between rounds, so every run builds whole rounds.  Every
// built wrapper is checked on its held-out pages, untimed.  With tracer
// set, each build records its span tree into the stats.
func buildLoop(ctx context.Context, seed uint64, r0 int, first [][]*synth.GenPage, d time.Duration, minRounds int, tracer *obs.Tracer) (buildStats, error) {
	var st buildStats
	opts := core.DefaultOptions()
	opts.Obs = tracer
	start := time.Now()
	for r := r0; ; r++ {
		pages := first
		if r != r0 || pages == nil {
			pages = buildRound(seed, r)
		}
		st.rounds++
		for i, eng := range pages {
			if err := ctx.Err(); err != nil {
				return st, err
			}
			samples := samplesOf(eng[:trainPages])
			a0, c0 := allocBytes(), processCPU()
			t0 := time.Now()
			ew, err := core.BuildWrapper(samples, opts)
			dt := time.Since(t0)
			st.cpu += processCPU() - c0
			st.alloc += allocBytes() - a0
			if err != nil {
				return st, fmt.Errorf("round %d engine %d: BuildWrapper: %w", r, i, err)
			}
			st.times = append(st.times, dt)
			st.traces = append(st.traces, tracer.Snapshot()...)
			sc, err := checkBuilt(ew, eng[trainPages:])
			// The built wrapper keeps opts, so checking it records extract
			// spans on the tracer too; drop them with the build's root.
			tracer.Reset()
			if err != nil {
				return st, fmt.Errorf("round %d engine %d: %w", r, i, err)
			}
			if r-r0 < scoredRounds {
				st.score.add(sc)
			}
		}
		if st.rounds >= minRounds && time.Since(start) >= d {
			return st, nil
		}
	}
}

// checkBuilt applies a freshly built wrapper to its held-out pages, scores
// the sections against ground truth, and requires the wrapper to extract
// exactly the same sections after a JSON round trip through
// mse.LoadWrapper.
func checkBuilt(ew *core.EngineWrapper, heldOut []*synth.GenPage) (truthScore, error) {
	data, err := json.Marshal(ew)
	if err != nil {
		return truthScore{}, fmt.Errorf("encoding wrapper: %w", err)
	}
	loaded, err := mse.LoadWrapper(data, nil)
	if err != nil {
		return truthScore{}, err
	}
	var total truthScore
	for _, p := range heldOut {
		secs := ew.Extract(p.HTML, p.Query)
		if again := loaded.Extract(p.HTML, p.Query); !reflect.DeepEqual(secs, again) {
			return total, fmt.Errorf("query %d: the reloaded wrapper extracts %d sections, the built one %d, or their contents differ",
				p.QueryIndex, len(again), len(secs))
		}
		got := make([][][]string, len(secs))
		for i, s := range secs {
			for _, rec := range s.Records {
				got[i] = append(got[i], rec.Lines)
			}
		}
		total.add(scorePage(p.Truth, got))
	}
	return total, nil
}

// runBuild is the build workload: wrapper induction for distinct engines,
// one at a time, with default options.
func runBuild(ctx context.Context, o runOpts) (*result, error) {
	if o.trace {
		return traceBuild(ctx, o)
	}
	var first [][]*synth.GenPage
	setup, err := timeSetups(func() error {
		var err error
		first, err = buildSetup(o.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	hs := startHeapSampler()
	st, err := buildLoop(ctx, o.seed, 0, first, o.duration, scoredRounds, nil)
	peak := hs.Stop()
	if err != nil {
		return nil, err
	}
	// Latency and rate are taken per window of buildWindow consecutive
	// builds; the p99, only logged, per window of p99Window.
	lat := durations(st.times, time.Millisecond)
	latP50, err := windowed(lat, buildWindow, p50, bestLow)
	if err != nil {
		return nil, err
	}
	latP99, err := windowed(lat, p99Window, p99, 0.5)
	if err != nil {
		return nil, err
	}
	rate, err := windowed(lat, buildWindow, func(ms []float64) (float64, error) {
		total := 0.0
		for _, v := range ms {
			total += v
		}
		return 1000 * float64(len(ms)) / total, nil
	}, bestHigh)
	if err != nil {
		return nil, err
	}
	n := len(st.times)
	res := newResult(n)
	res.set("setup_s", setup)
	res.set("latency_p50_ms", latP50)
	res.set("items_per_s", rate)
	res.set("cpu_ms_per_item", float64(st.cpu)/1e6/float64(n))
	res.set("alloc_kib_per_item", float64(st.alloc)/1024/float64(n))
	res.set("heap_peak_mib", peak)
	if err := res.setRecall(st.score, buildFloors); err != nil {
		return nil, err
	}
	logf("build: latency p99 %.3f ms (median of windows)", latP99)
	logf("build: %d builds in %d rounds; recall over the %d held-out pages of the first %d rounds, where %d ground-truth records were split across sections",
		n, st.rounds, scoredRounds*len(first)*buildHeldOut, scoredRounds, st.score.Split)
	return res, nil
}

// traceBuild is the traced build run: untraced builds for half the time,
// then builds with Options.Obs set for the other half; the step spans give
// the per-layer numbers, the difference of the two medians the tracing
// overhead.
func traceBuild(ctx context.Context, o runOpts) (*result, error) {
	first, err := buildSetup(o.seed)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	half := o.duration / 2
	rt0 := readRuntime()
	plain, err := buildLoop(ctx, o.seed, 0, first, half, 1, nil)
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	tracer := obs.NewTracer()
	traced, err := buildLoop(ctx, o.seed, plain.rounds, nil, half, 1, tracer)
	if err != nil {
		return nil, err
	}
	layers := buildLayers(traced.traces)
	untracedP50 := median(durations(plain.times, time.Millisecond))
	layers["trace.overhead_p50_ms"] = layers["core.build_p50_ms"] - untracedP50
	runtimeLayers(layers, rt0, rt1, len(plain.times))
	res := newResult(len(plain.times) + len(traced.times))
	res.layers = layers
	res.spans = []*obs.SpanSnapshot{obs.Merge(traced.traces)}
	return res, nil
}
