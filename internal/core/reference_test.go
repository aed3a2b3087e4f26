package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"mse/internal/htmlparse"
	"mse/internal/layout"
	"mse/internal/synth"
)

// referenceExtract is the interpreted extraction the compiled path is
// tested against: a render of the page with tag paths, the interpreted
// SectionWrapper.Apply / Family.Apply of every wrapper and family (each
// locating its own candidates with a fresh DOM walk), then the same
// finishSections tail as ExtractLeasedObs.
func referenceExtract(ew *EngineWrapper, html string, query []string) []*Section {
	page := layout.Render(htmlparse.Parse(html))
	opt := ew.opt.Wrapper
	var all []*Section
	for _, w := range ew.Wrappers {
		if s := w.Apply(page, query, opt); s != nil {
			all = append(all, s)
		}
	}
	for _, f := range ew.Families {
		all = append(all, f.Apply(page, query, opt)...)
	}
	return finishSections(all, nil)
}

func truncate(b []byte) string {
	const max = 400
	if len(b) <= max {
		return string(b)
	}
	return fmt.Sprintf("%s... (%d bytes)", b[:max], len(b))
}

// TestDifferentialCompiledWrappers is the soundness check for the compiled
// extraction path (wrapper compilation + query-aware DOM pruning): across
// the full paper-scale synthetic testbed — 119 engines, 38 multi-section —
// every extraction through Extract (prune pass, path-less pooled render,
// interned-signature partitioning, precompiled boundary markers) must be
// byte-identical to referenceExtract.  Drifted variants of every engine
// run too, so the fallback machinery (signature descend, tag-level
// classification, cohesion mining) is differential-tested, not just the
// happy path.
// Compilation must also leave the wrapper's serialized form untouched.
func TestDifferentialCompiledWrappers(t *testing.T) {
	bed := synth.GenerateTestbed(synth.DefaultConfig())
	if testing.Short() {
		bed = bed[:12]
	}
	for ei, e := range bed {
		var samples []*SamplePage
		for q := 0; q < 5; q++ {
			gp := e.Page(q)
			samples = append(samples, &SamplePage{HTML: gp.HTML, Query: gp.Query})
		}
		ew, err := BuildWrapper(samples, DefaultOptions())
		if err != nil {
			t.Fatalf("engine %d: %v", ei, err)
		}
		wjBefore, err := json.Marshal(ew)
		if err != nil {
			t.Fatalf("engine %d: marshal wrapper: %v", ei, err)
		}
		drifted := e.Drifted()
		extractBoth := func(html string, query []string, what string, q int) {
			ref, err := json.Marshal(referenceExtract(ew, html, query))
			if err != nil {
				t.Fatalf("engine %d %s page %d: marshal ref: %v", ei, what, q, err)
			}
			got, err := json.Marshal(ew.Extract(html, query))
			if err != nil {
				t.Fatalf("engine %d %s page %d: marshal compiled: %v", ei, what, q, err)
			}
			if !bytes.Equal(got, ref) {
				t.Errorf("engine %d %s page %d: compiled extraction differs\nref: %s\ngot: %s",
					ei, what, q, truncate(ref), truncate(got))
			}
		}
		for q := 5; q < 10; q++ {
			gp := e.Page(q)
			extractBoth(gp.HTML, gp.Query, "fresh", q)
			dp := drifted.Page(q)
			extractBoth(dp.HTML, dp.Query, "drifted", q)
		}
		wjAfter, err := json.Marshal(ew)
		if err != nil {
			t.Fatalf("engine %d: re-marshal wrapper: %v", ei, err)
		}
		if !bytes.Equal(wjBefore, wjAfter) {
			t.Errorf("engine %d: compilation changed the wrapper's serialized form", ei)
		}
	}
}

// TestValidateMatchesReference pins Validate, which runs the compiled
// path, to a report aggregated independently from referenceExtract, on
// fresh and drifted pages of single- and multi-section engines.
func TestValidateMatchesReference(t *testing.T) {
	for _, e := range []*synth.Engine{
		synth.NewEngine(95, 0, true),
		synth.NewEngine(95, 1, true),
		synth.NewEngine(95, 2, false),
	} {
		ew := buildFor(t, e)
		for _, variant := range []struct {
			name string
			e    *synth.Engine
		}{{"fresh", e}, {"drifted", e.Drifted()}} {
			var pages []*SamplePage
			for q := 5; q < 10; q++ {
				gp := variant.e.Page(q)
				pages = append(pages, &SamplePage{HTML: gp.HTML, Query: gp.Query})
			}
			want := &ValidationReport{Pages: len(pages)}
			for _, w := range ew.Wrappers {
				want.Wrappers = append(want.Wrappers, WrapperHealth{Order: w.Order})
			}
			for _, p := range pages {
				for _, s := range referenceExtract(ew, p.HTML, p.Query) {
					if s.FromFamily {
						want.FamilySections++
						continue
					}
					for i := range want.Wrappers {
						if h := &want.Wrappers[i]; h.Order == s.Order {
							h.Fired++
							h.Records += len(s.Records)
							if len(s.Records) == 0 {
								h.EmptySections++
							}
						}
					}
				}
			}
			if got := ew.Validate(pages); !reflect.DeepEqual(got, want) {
				t.Errorf("engine %s %s: Validate report differs from reference\nwant:\n%sgot:\n%s",
					e.Schema.SiteName, variant.name, want, got)
			}
		}
	}
}
