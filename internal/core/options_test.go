package core

import (
	"reflect"
	"testing"

	"mse/internal/synth"
)

// TestAblationFlags checks that the three Disable* options actually change
// pipeline behaviour (they exist for the ablation experiments).
func TestAblationFlags(t *testing.T) {
	e := synth.NewEngine(2006, 21, true) // multi-section, same-format engine
	var samples []*SamplePage
	for q := 0; q < 5; q++ {
		gp := e.Page(q)
		samples = append(samples, &SamplePage{HTML: gp.HTML, Query: gp.Query})
	}
	build := func(mod func(*Options)) *EngineWrapper {
		opt := DefaultOptions()
		mod(&opt)
		ew, err := BuildWrapper(samples, opt)
		if err != nil {
			t.Fatal(err)
		}
		return ew
	}
	full := build(func(*Options) {})
	noFam := build(func(o *Options) { o.DisableFamilies = true })
	if len(noFam.Families) != 0 {
		t.Fatalf("DisableFamilies still produced families")
	}
	if len(full.Wrappers)+len(full.Families) == 0 {
		t.Fatalf("full pipeline produced nothing")
	}
	// DisableRefine must not crash and must still yield a usable wrapper.
	noRefine := build(func(o *Options) { o.DisableRefine = true })
	gp := e.Page(7)
	if secs := noRefine.Extract(gp.HTML, gp.Query); secs == nil {
		t.Logf("no-refine wrapper extracted nothing (acceptable, but noting)")
	}
	noGran := build(func(o *Options) { o.DisableGranularity = true })
	_ = noGran.Extract(gp.HTML, gp.Query)
}

// TestAnalyzePagesExported verifies the exported analysis entry point used
// by evaluation harnesses returns one entry per sample page with rendered
// pages attached.
func TestAnalyzePagesExported(t *testing.T) {
	e := synth.NewEngine(2006, 8, false)
	var samples []*SamplePage
	for q := 0; q < 3; q++ {
		gp := e.Page(q)
		samples = append(samples, &SamplePage{HTML: gp.HTML, Query: gp.Query})
	}
	ps, err := AnalyzePages(samples, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 3 {
		t.Fatalf("pages = %d", len(ps))
	}
	for i, p := range ps {
		if p.Page == nil || len(p.Page.Lines) == 0 {
			t.Fatalf("page %d not rendered", i)
		}
		for _, s := range p.Sections {
			if s.Len() <= 0 || len(s.Records) == 0 {
				t.Fatalf("page %d has an empty refined section", i)
			}
		}
	}
}

// TestOptionsOneFieldPerParameter pins the shape of Options: each
// parameter has exactly one settable field, so no struct type is reachable
// twice, and the exported leaves number 27 — the 3 line and 5 record
// weights, W, MinDinr, MRE's 4, MinPairs, MaxBridgeGap, MaxGroup,
// MaxMerge, the cluster's 4, the 3 ablation switches, Parallelism and Obs.
func TestOptionsOneFieldPerParameter(t *testing.T) {
	seen := map[reflect.Type]string{}
	var leaves []string
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		if typ.Kind() != reflect.Struct {
			leaves = append(leaves, path)
			return
		}
		if prev, ok := seen[typ]; ok {
			t.Errorf("%s repeats %s (%v)", path, prev, typ)
		}
		seen[typ] = path
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				walk(f.Type, path+"."+f.Name)
			}
		}
	}
	walk(reflect.TypeOf(Options{}), "Options")
	if len(leaves) != 27 {
		t.Errorf("Options has %d settable values, want 27: %v", len(leaves), leaves)
	}
}
