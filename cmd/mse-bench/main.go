// Command mse-bench regenerates every quantitative result of the paper's
// evaluation (Section 6) over the synthetic test bed, plus the ablations
// and baseline comparisons indexed in DESIGN.md.
//
// Usage:
//
//	mse-bench [-table 1|2|3|stats|timing|ablation|baseline|all] [-seed 2006]
//	          [-engines 119] [-multi 38] [-trace] [-parallelism N]
//
// With -trace, a per-stage time breakdown of wrapper construction and
// extraction (aggregated over the first ten engines) is appended —
// together with the tree-distance cache counters and the effective worker
// count — so a benchmark regression can be attributed to a specific
// pipeline step.  -parallelism sets the pipeline worker count (0 =
// GOMAXPROCS).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mse/internal/baseline"
	"mse/internal/core"
	"mse/internal/editdist"
	"mse/internal/eval"
	"mse/internal/obs"
	"mse/internal/par"
	"mse/internal/synth"
)

// parallelism is the -parallelism flag: the worker count handed to every
// pipeline run (0 = GOMAXPROCS).
var parallelism int

// benchOpts is core.DefaultOptions with the command-line parallelism
// applied; every pipeline invocation in this command goes through it.
func benchOpts() core.Options {
	opt := core.DefaultOptions()
	opt.Parallelism = parallelism
	return opt
}

func main() {
	table := flag.String("table", "all", "which result to regenerate: 1, 2, 3, stats, timing, ablation, baseline, all")
	seed := flag.Int64("seed", 2006, "test bed master seed")
	engines := flag.Int("engines", 119, "number of engines")
	multi := flag.Int("multi", 38, "number of multi-section engines")
	trace := flag.Bool("trace", false, "append the per-stage pipeline time breakdown")
	flag.IntVar(&parallelism, "parallelism", 0, "pipeline worker count (0 = GOMAXPROCS)")
	flag.Parse()

	cfg := synth.Config{Seed: *seed, Engines: *engines, MultiSection: *multi, Queries: 10}
	bed := synth.GenerateTestbed(cfg)

	mseExtractor := func() eval.Extractor { return eval.NewMSE(benchOpts()) }
	run := func(multiOnly bool, newEx func() eval.Extractor) eval.Result {
		return eval.Run(bed, eval.RunConfig{
			SampleCount: 5, PageCount: 10, MultiOnly: multiOnly, NewExtractor: newEx,
		})
	}

	switch *table {
	case "styles":
		printStyleBreakdown(bed)
	case "1":
		printSectionTable("Table 1: section extraction on all engines", run(false, mseExtractor))
	case "2":
		printSectionTable("Table 2: section extraction on multi-section engines", run(true, mseExtractor))
	case "3":
		printRecordTable("Table 3: record extraction within correct sections", run(false, mseExtractor))
	case "stats":
		printStats(bed)
	case "timing":
		printTiming(bed)
	case "ablation":
		printAblations(bed)
	case "baseline":
		printBaselines(bed)
	case "all":
		res := run(false, mseExtractor)
		printSectionTable("Table 1: section extraction on all engines", res)
		printSectionTable("Table 2: section extraction on multi-section engines", run(true, mseExtractor))
		printRecordTable("Table 3: record extraction within correct sections", res)
		printStats(bed)
		printTiming(bed)
		printStyleBreakdown(bed)
		printAblations(bed)
		printBaselines(bed)
	default:
		fmt.Fprintf(os.Stderr, "mse-bench: unknown table %q\n", *table)
		os.Exit(2)
	}
	if *trace {
		printTrace(bed)
	}
}

// printTrace runs traced wrapper construction and extraction over the
// first ten engines and prints the merged per-stage breakdown, the
// attribution tool the BENCH trajectory uses to pin a regression on one
// pipeline step.
func printTrace(bed []*synth.Engine) {
	n := 10
	if n > len(bed) {
		n = len(bed)
	}
	opt := benchOpts()
	opt.Obs = obs.NewTracer()
	cs0 := editdist.Stats()
	for _, e := range bed[:n] {
		var samples []*core.SamplePage
		for q := 0; q < 5; q++ {
			gp := e.Page(q)
			samples = append(samples, &core.SamplePage{HTML: gp.HTML, Query: gp.Query})
		}
		ew, err := core.BuildWrapper(samples, opt)
		if err != nil {
			continue
		}
		for q := 5; q < 10; q++ {
			gp := e.Page(q)
			ew.Extract(gp.HTML, gp.Query)
		}
	}
	var builds, extracts []*obs.SpanSnapshot
	for _, snap := range opt.Obs.Snapshot() {
		switch snap.Name {
		case obs.RootBuildWrapper:
			builds = append(builds, snap)
		case obs.RootExtract:
			extracts = append(extracts, snap)
		}
	}
	fmt.Printf("\nPer-stage time breakdown (%d engines, 5 samples + 5 extractions each)\n", n)
	if b := obs.Merge(builds); b != nil {
		fmt.Printf("\n%s", b.Format())
	}
	if x := obs.Merge(extracts); x != nil {
		fmt.Printf("\n%s", x.Format())
	}
	cs := editdist.Stats().Sub(cs0)
	fmt.Printf("\nparallelism: %d workers (flag %d; 0 = GOMAXPROCS)\n", par.Workers(parallelism), parallelism)
	fmt.Printf("tree-distance cache: lookups=%d identical=%d hits=%d misses=%d early-exits=%d evictions=%d entries=%d hit-rate=%.1f%%\n",
		cs.Lookups, cs.Identical, cs.Hits, cs.Misses,
		cs.EarlyExits, cs.Evictions, cs.Entries, 100*cs.HitRate())
}

func printSectionTable(title string, res eval.Result) {
	fmt.Printf("\n%s\n%s\n", title, eval.Header())
	for _, row := range res.Rows() {
		fmt.Println(row.Format())
	}
}

func printRecordTable(title string, res eval.Result) {
	fmt.Printf("\n%s\n%s\n", title, eval.RecordHeader())
	for _, row := range res.Rows() {
		fmt.Println(row.RecordFormat())
	}
}

// printStats audits the test bed statistics the paper reports in §1-2:
// the fraction of multi-section engines and the SBM coverage.
func printStats(bed []*synth.Engine) {
	multi, total, withLBM, sections := 0, 0, 0, 0
	for _, e := range bed {
		total++
		if e.MultiSection() {
			multi++
		}
		for _, ss := range e.Schema.Sections {
			sections++
			if ss.HasLBM {
				withLBM++
			}
		}
	}
	fmt.Printf("\nTest bed statistics\n")
	fmt.Printf("engines: %d, multi-section: %d (%.1f%%; paper: 19/100 in dataset 2, 38/119 overall)\n",
		total, multi, 100*float64(multi)/float64(total))
	fmt.Printf("sections with explicit boundary markers: %d/%d = %.1f%% (paper: 96.9%%)\n",
		withLBM, sections, 100*float64(withLBM)/float64(sections))
}

// printTiming reproduces the §6 timing claims: wrapper construction from 5
// sample pages, and per-page extraction once the wrapper exists.
func printTiming(bed []*synth.Engine) {
	n := 10
	if n > len(bed) {
		n = len(bed)
	}
	var buildTotal, extractTotal time.Duration
	extractions := 0
	for _, e := range bed[:n] {
		var samples []*core.SamplePage
		for q := 0; q < 5; q++ {
			gp := e.Page(q)
			samples = append(samples, &core.SamplePage{HTML: gp.HTML, Query: gp.Query})
		}
		start := time.Now()
		ew, err := core.BuildWrapper(samples, benchOpts())
		if err != nil {
			continue
		}
		buildTotal += time.Since(start)
		for q := 5; q < 10; q++ {
			gp := e.Page(q)
			start = time.Now()
			ew.Extract(gp.HTML, gp.Query)
			extractTotal += time.Since(start)
			extractions++
		}
	}
	fmt.Printf("\nTiming (paper: 20-50 s wrapper construction on a 1.3 GHz Pentium M; extraction \"a small fraction of a second\")\n")
	fmt.Printf("wrapper construction (5 samples): %v per engine\n", buildTotal/time.Duration(n))
	fmt.Printf("extraction: %v per page\n", extractTotal/time.Duration(extractions))
}

// printStyleBreakdown reports extraction quality per page-layout idiom —
// the error analysis dimension §6 discusses qualitatively.
func printStyleBreakdown(bed []*synth.Engine) {
	type bucket struct {
		name   string
		filter func(*synth.Engine) bool
	}
	buckets := []bucket{
		{"table", func(e *synth.Engine) bool { return e.Schema.Style == synth.TableStyle && !e.Schema.Flat }},
		{"table-flat", func(e *synth.Engine) bool { return e.Schema.Flat }},
		{"div", func(e *synth.Engine) bool { return e.Schema.Style == synth.DivStyle }},
		{"list", func(e *synth.Engine) bool { return e.Schema.Style == synth.ListStyle }},
		{"dl", func(e *synth.Engine) bool { return e.Schema.Style == synth.DlStyle }},
	}
	fmt.Printf("\nBreakdown by layout style\n")
	fmt.Printf("%-12s %8s %8s %8s %8s\n", "style", "engines", "R-Perf%", "R-Tot%", "P-Tot%")
	for _, b := range buckets {
		var subset []*synth.Engine
		for _, e := range bed {
			if b.filter(e) {
				subset = append(subset, e)
			}
		}
		if len(subset) == 0 {
			continue
		}
		res := eval.Run(subset, eval.RunConfig{
			SampleCount: 5, PageCount: 10,
			NewExtractor: func() eval.Extractor { return eval.NewMSE(benchOpts()) },
		})
		tt := res.Total()
		fmt.Printf("%-12s %8d %8.1f %8.1f %8.1f\n", b.name, len(subset),
			100*tt.RecallPerfect(), 100*tt.RecallTotal(), 100*tt.PrecisionTotal())
	}
}

// printAblations quantifies each pipeline stage's contribution.
func printAblations(bed []*synth.Engine) {
	variants := []struct {
		name string
		opt  core.Options
	}{
		{"full MSE", benchOpts()},
		{"no refinement (step 4)", func() core.Options { o := benchOpts(); o.DisableRefine = true; return o }()},
		{"no granularity (step 6)", func() core.Options { o := benchOpts(); o.DisableGranularity = true; return o }()},
		{"no families (step 9)", func() core.Options { o := benchOpts(); o.DisableFamilies = true; return o }()},
	}
	fmt.Printf("\nAblation A: pipeline components (multi-section engines)\n")
	fmt.Printf("%-26s %8s %8s %8s %8s\n", "variant", "R-Perf%", "R-Tot%", "P-Perf%", "P-Tot%")
	for _, v := range variants {
		opt := v.opt
		res := eval.Run(bed, eval.RunConfig{
			SampleCount: 5, PageCount: 10, MultiOnly: true,
			NewExtractor: func() eval.Extractor { return eval.NewMSE(opt) },
		})
		tt := res.Total()
		fmt.Printf("%-26s %8.1f %8.1f %8.1f %8.1f\n", v.name,
			100*tt.RecallPerfect(), 100*tt.RecallTotal(),
			100*tt.PrecisionPerfect(), 100*tt.PrecisionTotal())
	}

	// Ablation B: section families, evaluated only on engines where a
	// section schema is absent from every sample page (hidden sections).
	var hidden []*synth.Engine
	for _, e := range bed {
		seen := map[int]bool{}
		for q := 0; q < 5; q++ {
			for _, s := range e.Page(q).Truth.Sections {
				seen[s.SchemaIndex] = true
			}
		}
	scan:
		for q := 5; q < 10; q++ {
			for _, s := range e.Page(q).Truth.Sections {
				if !seen[s.SchemaIndex] {
					hidden = append(hidden, e)
					break scan
				}
			}
		}
	}
	fmt.Printf("\nAblation B: section families on the %d hidden-section engines\n", len(hidden))
	if len(hidden) > 0 {
		fmt.Printf("%-14s %8s %8s\n", "variant", "R-Tot%", "P-Tot%")
		for _, v := range []struct {
			name string
			opt  core.Options
		}{
			{"families-on", benchOpts()},
			{"families-off", func() core.Options { o := benchOpts(); o.DisableFamilies = true; return o }()},
		} {
			opt := v.opt
			res := eval.Run(hidden, eval.RunConfig{
				SampleCount: 5, PageCount: 10,
				NewExtractor: func() eval.Extractor { return eval.NewMSE(opt) },
			})
			tt := res.Total()
			fmt.Printf("%-14s %8.1f %8.1f\n", v.name,
				100*tt.RecallTotal(), 100*tt.PrecisionTotal())
		}
	}

	fmt.Printf("\nAblation C: W parameter sweep (paper uses W=1.8; multi-section engines)\n")
	fmt.Printf("%-8s %8s %8s\n", "W", "R-Tot%", "P-Tot%")
	for _, wv := range []float64{1.0, 1.4, 1.8, 2.2, 3.0} {
		opt := benchOpts()
		opt.Refine.W = wv
		opt.Granularity.W = wv
		res := eval.Run(bed, eval.RunConfig{
			SampleCount: 5, PageCount: 10, MultiOnly: true,
			NewExtractor: func() eval.Extractor { return eval.NewMSE(opt) },
		})
		tt := res.Total()
		fmt.Printf("%-8.1f %8.1f %8.1f\n", wv, 100*tt.RecallTotal(), 100*tt.PrecisionTotal())
	}

	fmt.Printf("\nAblation D: sample page count (all engines)\n")
	fmt.Printf("%-8s %8s %8s\n", "samples", "R-Tot%", "P-Tot%")
	for _, n := range []int{2, 3, 4, 5} {
		res := eval.Run(bed, eval.RunConfig{
			SampleCount: n, PageCount: 10,
			NewExtractor: func() eval.Extractor { return eval.NewMSE(benchOpts()) },
		})
		tt := res.Total()
		fmt.Printf("%-8d %8.1f %8.1f\n", n, 100*tt.RecallTotal(), 100*tt.PrecisionTotal())
	}
}

// printBaselines compares MSE against the related-work systems of §7.
func printBaselines(bed []*synth.Engine) {
	systems := []struct {
		name  string
		newEx func() eval.Extractor
	}{
		{"MSE", func() eval.Extractor { return eval.NewMSE(benchOpts()) }},
		{"MDR-style", func() eval.Extractor { return baseline.NewMDR() }},
		{"ViNTs-single", func() eval.Extractor { return baseline.NewSingleSection() }},
	}
	fmt.Printf("\nBaselines on multi-section engines\n")
	fmt.Printf("%-14s %8s %8s %10s %10s\n", "system", "R-Tot%", "P-Tot%", "RecRec%", "RecPrec%")
	for _, sys := range systems {
		res := eval.Run(bed, eval.RunConfig{
			SampleCount: 5, PageCount: 10, MultiOnly: true, NewExtractor: sys.newEx,
		})
		tt := res.Total()
		fmt.Printf("%-14s %8.1f %8.1f %10.1f %10.1f\n", sys.name,
			100*tt.RecallTotal(), 100*tt.PrecisionTotal(),
			100*tt.RecordRecall(), 100*tt.RecordPrecision())
	}
}
