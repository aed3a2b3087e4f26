package core

import (
	"testing"

	"mse/internal/editdist"
	"mse/internal/obs"
	"mse/internal/par"
	"mse/internal/synth"
)

func obsSamples(t testing.TB) []*SamplePage {
	t.Helper()
	e := synth.NewEngine(55, 3, true)
	var samples []*SamplePage
	for q := 0; q < 5; q++ {
		gp := e.Page(q)
		samples = append(samples, &SamplePage{HTML: gp.HTML, Query: gp.Query})
	}
	return samples
}

// TestBuildWrapperSpans asserts the tentpole tracing contract: one
// build_wrapper root per call, exactly one child span per pipeline step,
// child durations bounded by the root, and the stage counters populated.
// Step spans accumulate worker time, so Σsteps ≤ root holds only on the
// serial path; with W workers the bound is W × root.
func TestBuildWrapperSpans(t *testing.T) {
	for _, tc := range []struct {
		name        string
		parallelism int
	}{{"serial", 1}, {"parallel", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			samples := obsSamples(t)
			opt := DefaultOptions()
			opt.Parallelism = tc.parallelism
			opt.Obs = obs.NewTracer()
			// A warm tree-distance cache from an earlier run (-count=2)
			// would answer every distance without a tree_dist call.
			editdist.ResetCache()
			if _, err := BuildWrapper(samples, opt); err != nil {
				t.Fatal(err)
			}

			roots := opt.Obs.Snapshot()
			if len(roots) != 1 {
				t.Fatalf("roots = %d, want 1", len(roots))
			}
			root := roots[0]
			if root.Name != obs.RootBuildWrapper {
				t.Fatalf("root name = %q", root.Name)
			}
			seen := map[string]int{}
			var sum int64
			for _, c := range root.Children {
				seen[c.Name]++
				sum += int64(c.Duration)
			}
			for _, step := range obs.PipelineSteps {
				if seen[step] != 1 {
					t.Errorf("step %q has %d spans, want exactly 1", step, seen[step])
				}
			}
			if len(root.Children) != len(obs.PipelineSteps) {
				t.Errorf("children = %d, want %d", len(root.Children), len(obs.PipelineSteps))
			}
			workers := int64(par.Workers(opt.Parallelism))
			if sum > int64(root.Duration)*workers {
				t.Errorf("step durations sum %d > root duration %d × %d workers", sum, int64(root.Duration), workers)
			}
			if root.Duration <= 0 {
				t.Errorf("root duration = %v", root.Duration)
			}

			if got := root.Counters["pages"]; got != 5 {
				t.Errorf("pages counter = %d, want 5", got)
			}
			if root.Counters["sections"] <= 0 {
				t.Errorf("sections counter = %d, want > 0", root.Counters["sections"])
			}
			if root.Counters["records"] <= 0 {
				t.Errorf("records counter = %d, want > 0", root.Counters["records"])
			}
			if root.Counters["tree_dist_calls"] <= 0 {
				t.Errorf("tree_dist_calls counter = %d, want > 0", root.Counters["tree_dist_calls"])
			}
		})
	}
}

// TestBuildWrapperSpansWithAblations asserts skipped steps still emit a
// (zero-duration) span, keeping the tree shape stable for dashboards.
func TestBuildWrapperSpansWithAblations(t *testing.T) {
	samples := obsSamples(t)
	opt := DefaultOptions()
	opt.DisableRefine = true
	opt.DisableGranularity = true
	opt.DisableFamilies = true
	opt.Obs = obs.NewTracer()
	if _, err := BuildWrapper(samples, opt); err != nil {
		t.Fatal(err)
	}
	root := opt.Obs.Snapshot()[0]
	for _, step := range obs.PipelineSteps {
		if root.Find(step) == nil {
			t.Errorf("ablated run missing span %q", step)
		}
	}
	if d := root.Find(obs.StepRefine).Duration; d != 0 {
		t.Errorf("disabled refine accumulated %v", d)
	}
}

func TestAnalyzePagesSpans(t *testing.T) {
	samples := obsSamples(t)
	opt := DefaultOptions()
	opt.Obs = obs.NewTracer()
	if _, err := AnalyzePages(samples, opt); err != nil {
		t.Fatal(err)
	}
	root := opt.Obs.Snapshot()[0]
	if root.Name != obs.RootAnalyzePages {
		t.Fatalf("root name = %q", root.Name)
	}
	for _, step := range obs.PipelineSteps[:6] {
		if root.Find(step) == nil {
			t.Errorf("analyze_pages missing span %q", step)
		}
	}
}

func TestExtractSpans(t *testing.T) {
	samples := obsSamples(t)
	opt := DefaultOptions()
	ew, err := BuildWrapper(samples, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Obs = obs.NewTracer()
	ew.SetOptions(opt)
	e := synth.NewEngine(55, 3, true)
	gp := e.Page(7)
	sections := ew.Extract(gp.HTML, gp.Query)
	if len(sections) == 0 {
		t.Fatal("no sections extracted")
	}
	roots := opt.Obs.Snapshot()
	if len(roots) != 1 || roots[0].Name != obs.RootExtract {
		t.Fatalf("roots = %+v", roots)
	}
	root := roots[0]
	for _, step := range []string{obs.StepRender, obs.StepWrapper, obs.StepFamilies} {
		if root.Find(step) == nil {
			t.Errorf("extract missing span %q", step)
		}
	}
	if root.Counters["sections"] != int64(len(sections)) {
		t.Errorf("sections counter = %d, want %d", root.Counters["sections"], len(sections))
	}
	if root.Counters["records"] <= 0 {
		t.Errorf("records counter = %d, want > 0", root.Counters["records"])
	}
}

// TestNoTracerNoAllocs pins the zero-cost contract: with Obs unset the
// pipeline records nothing and touches no tracer state.
func TestNoTracerNoSpans(t *testing.T) {
	samples := obsSamples(t)
	opt := DefaultOptions()
	ew, err := BuildWrapper(samples, opt)
	if err != nil {
		t.Fatal(err)
	}
	e := synth.NewEngine(55, 3, true)
	gp := e.Page(7)
	if got := ew.Extract(gp.HTML, gp.Query); len(got) == 0 {
		t.Fatal("no sections extracted without tracer")
	}
}

// BenchmarkBuildWrapper measures wrapper construction without the obs
// hook; BenchmarkBuildWrapperTraced measures it with tracing enabled.
// Comparing the two bounds the instrumentation overhead.
func BenchmarkBuildWrapper(b *testing.B) {
	samples := obsSamples(b)
	opt := DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildWrapper(samples, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildWrapperTraced(b *testing.B) {
	samples := obsSamples(b)
	opt := DefaultOptions()
	opt.Obs = obs.NewTracer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Obs.Reset()
		if _, err := BuildWrapper(samples, opt); err != nil {
			b.Fatal(err)
		}
	}
}
