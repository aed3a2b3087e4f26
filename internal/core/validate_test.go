package core

import (
	"reflect"
	"strings"
	"testing"

	"mse/internal/synth"
)

func buildFor(t *testing.T, e *synth.Engine) *EngineWrapper {
	t.Helper()
	var samples []*SamplePage
	for q := 0; q < 5; q++ {
		gp := e.Page(q)
		samples = append(samples, &SamplePage{HTML: gp.HTML, Query: gp.Query})
	}
	ew, err := BuildWrapper(samples, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ew
}

func TestValidateHealthyOnOwnEngine(t *testing.T) {
	e := synth.NewEngine(91, 1, false) // single, always-present section
	ew := buildFor(t, e)
	var fresh []*SamplePage
	for q := 5; q < 10; q++ {
		gp := e.Page(q)
		fresh = append(fresh, &SamplePage{HTML: gp.HTML, Query: gp.Query})
	}
	report := ew.Validate(fresh)
	if report.Pages != 5 {
		t.Fatalf("pages = %d", report.Pages)
	}
	if !report.Healthy(0.5) {
		t.Fatalf("wrapper unhealthy on its own engine:\n%s", report)
	}
	total := 0
	for _, w := range report.Wrappers {
		total += w.Records
	}
	if total == 0 && report.FamilySections == 0 {
		t.Fatalf("validation saw no records at all")
	}
}

func TestValidateDetectsTemplateDrift(t *testing.T) {
	e := synth.NewEngine(92, 2, false)
	ew := buildFor(t, e)
	// "The engine redesigned its site": completely different pages.
	drifted := []*SamplePage{
		{HTML: "<html><body><main><article>new world</article></main></body></html>", Query: []string{"q"}},
		{HTML: "<html><body><main><article>other content</article></main></body></html>", Query: []string{"r"}},
	}
	report := ew.Validate(drifted)
	if report.Healthy(0.5) {
		t.Fatalf("drifted template reported healthy:\n%s", report)
	}
}

func TestValidateStringOutput(t *testing.T) {
	e := synth.NewEngine(93, 3, true)
	ew := buildFor(t, e)
	gp := e.Page(6)
	report := ew.Validate([]*SamplePage{{HTML: gp.HTML, Query: gp.Query}})
	out := report.String()
	if !strings.Contains(out, "validated over 1 pages") {
		t.Fatalf("summary missing header: %q", out)
	}
	if len(report.Wrappers) > 0 && !strings.Contains(out, "wrapper ") {
		t.Fatalf("summary missing wrapper lines: %q", out)
	}
}

func TestValidateEmptyPageSet(t *testing.T) {
	e := synth.NewEngine(94, 4, false)
	ew := buildFor(t, e)
	report := ew.Validate(nil)
	if report.Pages != 0 {
		t.Fatalf("pages = %d", report.Pages)
	}
	// With zero pages every wrapper trivially fired 0 >= 0.5*0 times.
	if !report.Healthy(0.5) {
		t.Fatalf("empty validation should be vacuously healthy")
	}
}

// TestValidateMatchesReference pins Validate to a report aggregated
// independently from Extract, on fresh and drifted pages of single- and
// multi-section engines.  It also requires each section wrapper to fire on
// its own section: a page's wrapper sections carry distinct Orders, each
// the Order of one of the engine's wrappers, and on fresh pages every
// wrapper of a multi-section engine fires.  A section stamped with the wrong wrapper's Order would
// otherwise pass the aggregate comparison, since Validate and the
// aggregate read the same Order field.
func TestValidateMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		e     *synth.Engine
		multi bool
	}{
		{synth.NewEngine(95, 0, true), true},
		{synth.NewEngine(95, 1, true), true},
		{synth.NewEngine(95, 2, false), false},
	} {
		e := tc.e
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
			for pi, p := range pages {
				seen := map[int]bool{}
				for _, s := range ew.Extract(p.HTML, p.Query) {
					if s.FromFamily {
						want.FamilySections++
						continue
					}
					if seen[s.Order] {
						t.Errorf("engine %s %s page %d: two sections carry wrapper order %d",
							e.Schema.SiteName, variant.name, pi+5, s.Order)
					}
					seen[s.Order] = true
					known := false
					for i := range want.Wrappers {
						if h := &want.Wrappers[i]; h.Order == s.Order {
							known = true
							h.Fired++
							h.Records += len(s.Records)
							if len(s.Records) == 0 {
								h.EmptySections++
							}
						}
					}
					if !known {
						t.Errorf("engine %s %s page %d: section carries order %d, which no wrapper has",
							e.Schema.SiteName, variant.name, pi+5, s.Order)
					}
				}
			}
			got := ew.Validate(pages)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("engine %s %s: Validate report differs from reference\nwant:\n%sgot:\n%s",
					e.Schema.SiteName, variant.name, want, got)
			}
			if variant.name != "fresh" || !tc.multi {
				continue
			}
			for _, h := range got.Wrappers {
				if h.Fired == 0 {
					t.Errorf("engine %s: wrapper %d never fired on fresh pages\n%s",
						e.Schema.SiteName, h.Order, got)
				}
			}
		}
	}
}
