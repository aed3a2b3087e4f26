package wrapper

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"mse/internal/cluster"
	"mse/internal/dom"
	"mse/internal/htmlparse"
	"mse/internal/layout"
	"mse/internal/mining"
	"mse/internal/sect"
	"mse/internal/visual"
)

func render(src string) *layout.Page {
	return layout.Render(htmlparse.Parse(src))
}

// testParams are the default parameters of the record-mining fallback.
var testParams = visual.DefaultParams()

// applyWrapper runs w's compiled form on p with the candidates
// dom.LocateCompactAll finds for its Pref: the list the prune pass hands
// it during extraction.
func applyWrapper(w *SectionWrapper, p *layout.Page, query []string) *ExtractedSection {
	return Compile(w).Apply(p, dom.LocateCompactAll(p.Doc, w.Pref), query, &testParams, mining.DefaultOptions(), nil)
}

// applyFamily is applyWrapper for a family, with the candidates the prune
// pass would hand it: the Pref candidates for Type 1, the Pref+SPref
// pattern matches for Type 2.
func applyFamily(f *Family, p *layout.Page) []*ExtractedSection {
	var cands []*dom.Node
	switch f.Type {
	case Type1:
		cands = dom.LocateCompactAll(p.Doc, f.Pref)
	case Type2:
		pattern := append(append(dom.CompactPath(nil), f.Pref...), f.SPref...)
		cands = dom.LocatePattern(p.Doc, pattern, len(f.Pref))
	}
	return CompileFamily(f).ApplyCands(p, cands, &testParams, mining.DefaultOptions(), nil)
}

// sectionPage builds a page with one heading + n two-line records in a
// table, and returns the page plus the hand-made refined section.
func sectionPage(n int, tag string) (*layout.Page, *sect.Section) {
	var sb strings.Builder
	sb.WriteString(`<body><h1>Site</h1><h3>Results</h3><table>`)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `<tr><td><a href="/%s%d">Title %s %d</a><br>snippet %s %d</td></tr>`,
			tag, i, tag, i, tag, i)
	}
	sb.WriteString(`</table><div>Copyright notice.</div></body>`)
	p := render(sb.String())
	s := sect.New(p, 2, 2+2*n)
	s.LBM = 1
	for i := 0; i < n; i++ {
		s.Records = append(s.Records, visual.Block{Page: p, Start: 2 + 2*i, End: 4 + 2*i})
	}
	return p, s
}

func buildTestWrapper(t *testing.T) (*SectionWrapper, []*cluster.PageSections) {
	t.Helper()
	var pages []*cluster.PageSections
	grp := &cluster.Group{}
	for i, tag := range []string{"aa", "bb", "cc"} {
		p, s := sectionPage(3+i, tag)
		ps := &cluster.PageSections{Page: p, Query: []string{"q"}, Sections: []*sect.Section{s}}
		pages = append(pages, ps)
		grp.Instances = append(grp.Instances, cluster.NewInstance(i, ps, s))
	}
	return Build(grp, pages, 0), pages
}

func TestBuildWrapperComponents(t *testing.T) {
	w, _ := buildTestWrapper(t)
	if len(w.Pref) == 0 {
		t.Fatalf("pref missing")
	}
	if len(w.Sep.StartSigs) == 0 {
		t.Fatalf("separator start signatures missing")
	}
	if len(w.LBMs) == 0 || w.LBMs[0] != "Results" {
		t.Fatalf("LBMs = %v, want [Results]", w.LBMs)
	}
	if len(w.LBMAttrs) == 0 {
		t.Fatalf("LBM attrs missing (needed for families)")
	}
}

func TestApplyToNewPage(t *testing.T) {
	w, _ := buildTestWrapper(t)
	p, _ := sectionPage(5, "zz") // unseen record count
	got := applyWrapper(w, p, []string{"q"})
	if got == nil {
		t.Fatalf("wrapper did not fire")
	}
	if got.Heading != "Results" {
		t.Fatalf("heading = %q", got.Heading)
	}
	if len(got.Records) != 5 {
		for _, r := range got.Records {
			t.Logf("rec: %v", r.Lines)
		}
		t.Fatalf("records = %d, want 5", len(got.Records))
	}
	for i, r := range got.Records {
		if len(r.Lines) != 2 {
			t.Fatalf("record %d has %d lines", i, len(r.Lines))
		}
		if len(r.Links) != 1 {
			t.Fatalf("record %d links = %v", i, r.Links)
		}
	}
}

func TestApplyRejectsPageWithoutSection(t *testing.T) {
	w, _ := buildTestWrapper(t)
	p := render(`<body><h1>Site</h1><div>No results found for your query.</div>
	<div>Copyright notice.</div></body>`)
	if got := applyWrapper(w, p, []string{"q"}); got != nil {
		t.Fatalf("wrapper fired on a no-results page: %+v", got)
	}
}

func TestApplyHeadingOnFirstLine(t *testing.T) {
	// The section's heading is the page's first line, so the section
	// starts at line 1; the heading above it must still validate it.
	w, _ := buildTestWrapper(t)
	var sb strings.Builder
	sb.WriteString(`<body><h3>Results</h3><table>`)
	for i := 0; i < 3; i++ {
		fmt.Fprintf(&sb, `<tr><td><a href="/f%d">Title f %d</a><br>snippet f %d</td></tr>`, i, i, i)
	}
	sb.WriteString(`</table></body>`)
	got := applyWrapper(w, render(sb.String()), []string{"q"})
	if got == nil {
		t.Fatalf("wrapper did not fire under a first-line heading")
	}
	if got.Heading != "Results" || got.Start != 1 || len(got.Records) != 3 {
		t.Fatalf("section = heading %q, start %d, %d records; want \"Results\", 1, 3",
			got.Heading, got.Start, len(got.Records))
	}
}

func TestWrapperJSONRoundTrip(t *testing.T) {
	w, _ := buildTestWrapper(t)
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var restored SectionWrapper
	if err := json.Unmarshal(data, &restored); err != nil {
		t.Fatal(err)
	}
	if restored.Pref.String() != w.Pref.String() {
		t.Fatalf("pref changed: %s vs %s", restored.Pref, w.Pref)
	}
	if len(restored.Sep.StartSigs) != len(w.Sep.StartSigs) {
		t.Fatalf("separator changed")
	}
	if len(restored.LBMAttrs) != len(w.LBMAttrs) {
		t.Fatalf("attrs changed")
	}
	p, _ := sectionPage(4, "rr")
	a := applyWrapper(w, p, []string{"q"})
	b := applyWrapper(&restored, p, []string{"q"})
	if (a == nil) != (b == nil) {
		t.Fatalf("restored wrapper behaves differently")
	}
	if a != nil && len(a.Records) != len(b.Records) {
		t.Fatalf("restored wrapper extracts differently")
	}
}

func TestFamilyJSONRoundTrip(t *testing.T) {
	pref, err := dom.ParseCompactPath("{#document}+0{html}+0{body}+1")
	if err != nil {
		t.Fatal(err)
	}
	spref, err := dom.ParseCompactPath("{table}+2{tbody}+0")
	if err != nil {
		t.Fatal(err)
	}
	f := &Family{
		Type:  Type2,
		Pref:  pref,
		SPref: spref,
		Sep: Separator{
			StartSigs: []string{"tr(td[a])"},
		},
		LBMAttrs:  []layout.TextAttr{{Font: "times", Size: 19, Style: layout.Bold, Color: "#000000"}},
		KnownLBMs: []string{"News", "Products"},
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var restored Family
	if err := json.Unmarshal(data, &restored); err != nil {
		t.Fatal(err)
	}
	if restored.Type != Type2 || restored.Pref.String() != f.Pref.String() ||
		restored.SPref.String() != f.SPref.String() {
		t.Fatalf("family round trip lost structure")
	}
	if len(restored.KnownLBMs) != 2 || len(restored.LBMAttrs) != 1 {
		t.Fatalf("family round trip lost metadata")
	}
}
