// Command msebench is the repository benchmark.  It generates its inputs
// from a seed, trains MSE wrappers, serves them from an in-process
// serve.Registry on a loopback listener, drives that server from one
// generator, scores every answer against synth ground truth, and prints
// its metrics as one JSON object on the last line of standard output.
//
//	msebench --workload serve-miss|serve-hot|build --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer metrics of a separate traced run.  See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"mse/internal/editdist"
	"mse/internal/obs"
)

// setupRepeats is how many times an untraced run sets up; setup_s is the
// median.
const setupRepeats = 5

// timeSetups runs setup setupRepeats times and returns the median wall
// time.  Each repeat starts from a collected heap and an empty
// process-wide tree-distance memo, so that the repeats do the same work;
// the state of the last one is kept for the run.
func timeSetups(setup func() error) (float64, error) {
	times := make([]float64, setupRepeats)
	for i := range times {
		editdist.ResetCache()
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		times[i] = time.Since(t0).Seconds()
	}
	runtime.GC()
	return median(times), nil
}

// outDir receives each run's result and trace, relative to the checkout.
const outDir = ".bench_out"

type runOpts struct {
	workload string
	seed     uint64
	duration time.Duration
	trace    bool
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, as BENCHMARK.json lists them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"items_per_s", "1/s"},
	{"cpu_ms_per_item", "ms"},
	{"alloc_kib_per_item", "KiB"},
	{"heap_peak_mib", "MiB"},
	{"record_recall", "ratio"},
	{"section_recall", "ratio"},
}

// perLayer are the metrics of a traced run.  A workload that does not run
// a layer reports 0 for it (the build workload serves nothing; the
// serving workloads take their build layers from set-up's training).
var perLayer = []metricDef{
	{"http.transport_p50_us", "us"},
	{"serve.handler_p50_us", "us"},
	{"serve.handler_p99_us", "us"},
	{"serve.request_other_p50_us", "us"},
	{"serve.extract_cached_miss_p50_us", "us"},
	{"serve.extract_cached_hit_p50_us", "us"},
	{"serve.fill_other_p50_us", "us"},
	{"excache.hash_p50_us", "us"},
	{"excache.hit_ratio", "ratio"},
	{"excache.evictions_per_1k_items", "count"},
	{"core.extract_p50_us", "us"},
	{"core.render_p50_us", "us"},
	{"core.prune_p50_us", "us"},
	{"core.wrapper_p50_us", "us"},
	{"core.families_p50_us", "us"},
	{"core.extract_other_p50_us", "us"},
	{"prune.skeleton_line_share", "ratio"},
	{"prune.nodes_skipped_per_page", "count"},
	{"annotate.record_p50_us", "us"},
	{"quality.observe_p50_us", "us"},
	{"dom.arena_reuse_ratio", "ratio"},
	{"layout.scratch_reuse_ratio", "ratio"},
	{"core.build_p50_ms", "ms"},
	{"layout.render_ms", "ms"},
	{"mre.extract_ms", "ms"},
	{"dse.run_ms", "ms"},
	{"refine.refine_ms", "ms"},
	{"mining.mine_ms", "ms"},
	{"granularity.resolve_ms", "ms"},
	{"cluster.group_ms", "ms"},
	{"wrapper.build_ms", "ms"},
	{"wrapper.families_ms", "ms"},
	{"core.build_other_ms", "ms"},
	{"editdist.tree_dist_calls_per_build", "count"},
	{"editdist.tree_cache_hit_ratio", "ratio"},
	{"runtime.gc_cycles_per_1k_items", "count"},
	{"runtime.gc_pause_cpu_us_per_1k_items", "us"},
	{"loadgen.send_lag_p99_ms", "ms"},
	{"trace.overhead_p50_ms", "ms"},
}

// recallFloors are the lowest record_recall and section_recall a workload
// accepts; README.md derives them from the paper's Tables 1 and 3.
type recallFloors struct{ record, section float64 }

var (
	serveFloors = recallFloors{record: 0.85, section: 0.80}
	buildFloors = recallFloors{record: 0.80, section: 0.70}
)

// result is a run's outcome: end-to-end values (untraced) or layer values
// and span trees (traced).
type result struct {
	attempted int
	values    map[string]float64
	layers    map[string]float64
	spans     []*obs.SpanSnapshot
}

func newResult(attempted int) *result {
	return &result{attempted: attempted, values: map[string]float64{}}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// setRecall records the quality metrics and enforces the floors.
func (r *result) setRecall(sc truthScore, fl recallFloors) error {
	r.set("record_recall", sc.recordRecall())
	r.set("section_recall", sc.sectionRecall())
	logf("quality: %d/%d ground-truth records exact, %d/%d sections perfect",
		sc.RecordsExact, sc.Records, sc.Perfect, sc.Sections)
	if sc.recordRecall() < fl.record || sc.sectionRecall() < fl.section {
		return fmt.Errorf("quality below floor: record_recall %.4f (floor %.2f), section_recall %.4f (floor %.2f)",
			sc.recordRecall(), fl.record, sc.sectionRecall(), fl.section)
	}
	return nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// output assembles the printed result: every end-to-end metric of an
// untraced run, every per-layer metric of a traced one.
func (r *result) output(trace bool) (resultOut, error) {
	defs, vals := endToEnd, r.values
	if trace {
		defs, vals = perLayer, r.layers
	}
	out := resultOut{Correct: true, Attempted: r.attempted, Metrics: map[string]metricOut{}}
	known := map[string]bool{}
	for _, d := range defs {
		known[d.name] = true
		v, ok := vals[d.name]
		if !ok && !trace {
			return out, fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	for name := range vals {
		if !known[name] {
			return out, fmt.Errorf("metric %s is not declared", name)
		}
	}
	if out.Attempted < 1 {
		return out, fmt.Errorf("no operation attempted")
	}
	return out, nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "msebench: "+format+"\n", args...)
}

func main() { os.Exit(run()) }

func run() int {
	var o runOpts
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "serve-miss, serve-hot or build")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "msebench: need --seconds >= 1, --trace 0 or 1, and no arguments")
		return 2
	}
	o.duration = time.Duration(seconds) * time.Second
	o.trace = trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var res *result
	var err error
	switch o.workload {
	case "serve-miss":
		res, err = runServe(ctx, serveMiss, o)
	case "serve-hot":
		res, err = runServe(ctx, serveHot, o)
	case "build":
		res, err = runBuild(ctx, o)
	default:
		fmt.Fprintf(os.Stderr, "msebench: unknown workload %q\n", o.workload)
		return 2
	}
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	if err != nil {
		logf("%s: %v", o.workload, err)
		if ctx.Err() != nil {
			return 130
		}
		return 1
	}
	out, err := res.output(o.trace)
	if err != nil {
		logf("%s: %v", o.workload, err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		logf("encoding result: %v", err)
		return 1
	}
	if err := save(o, line, res.spans); err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// save writes the result line, and for a traced run the merged span
// trees, under outDir.
func save(o runOpts, line []byte, spans []*obs.SpanSnapshot) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	kind := "result"
	if o.trace {
		kind = "trace"
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-%s", o.workload, o.seed, kind))
	if err := os.WriteFile(base+".json", append(line, '\n'), 0o644); err != nil {
		return err
	}
	if spans == nil {
		return nil
	}
	data, err := json.MarshalIndent(spans, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+"-spans.json", append(data, '\n'), 0o644)
}
