package wrapper

import (
	"fmt"
	"strings"
	"testing"

	"mse/internal/cluster"
	"mse/internal/dom"
	"mse/internal/layout"
	"mse/internal/sect"
	"mse/internal/visual"
)

// multiSectionPage renders nSecs sibling sections (each: styled heading
// div + table of two-line records) and returns the page plus hand-made
// refined sections.
func multiSectionPage(nSecs int, recsPer []int, tag string) (*layout.Page, []*sect.Section) {
	var sb strings.Builder
	sb.WriteString(`<body><h1>Site</h1>`)
	for s := 0; s < nSecs; s++ {
		fmt.Fprintf(&sb, `<div style="font-size: 18px; font-weight: bold; color: #663300">Heading %c</div>`, 'A'+s)
		sb.WriteString("<table>")
		for i := 0; i < recsPer[s]; i++ {
			fmt.Fprintf(&sb, `<tr><td><a href="/%s/%d/%d">Title %s %d %d</a><br>snippet %s %d %d</td></tr>`,
				tag, s, i, tag, s, i, tag, s, i)
		}
		sb.WriteString("</table>")
	}
	sb.WriteString(`<div>Copyright notice.</div></body>`)
	p := render(sb.String())

	var sections []*sect.Section
	line := 1 // after the h1
	for s := 0; s < nSecs; s++ {
		start := line + 1 // after the heading
		end := start + 2*recsPer[s]
		sec := sect.New(p, start, end)
		sec.LBM = line
		for i := 0; i < recsPer[s]; i++ {
			sec.Records = append(sec.Records,
				visual.Block{Page: p, Start: start + 2*i, End: start + 2*i + 2})
		}
		sections = append(sections, sec)
		line = end
	}
	return p, sections
}

// buildFamilyWrappers trains wrappers for two same-format sections across
// three pages and combines them into families.
func buildFamilyWrappers(t *testing.T) ([]*SectionWrapper, []*Family) {
	t.Helper()
	var pages []*cluster.PageSections
	groups := []*cluster.Group{{}, {}}
	for i, tag := range []string{"aa", "bb", "cc"} {
		p, secs := multiSectionPage(2, []int{3 + i, 2 + i}, tag)
		ps := &cluster.PageSections{Page: p, Query: []string{"q"}, Sections: secs}
		pages = append(pages, ps)
		for gi, s := range secs {
			groups[gi].Instances = append(groups[gi].Instances, cluster.NewInstance(i, ps, s))
		}
	}
	var ws []*SectionWrapper
	for order, g := range groups {
		ws = append(ws, Build(g, pages, order))
	}
	return BuildFamilies(ws)
}

func TestBuildFamiliesCombinesSameFormatSections(t *testing.T) {
	remaining, fams := buildFamilyWrappers(t)
	if len(fams) != 1 {
		t.Fatalf("families = %d, want 1 (same seps + same LBM attrs)", len(fams))
	}
	if len(remaining) != 0 {
		t.Fatalf("member wrappers should be deleted, %d remain", len(remaining))
	}
	if fams[0].Type != Type2 {
		t.Fatalf("family type = %d, want Type2 (sibling subtrees)", fams[0].Type)
	}
	if len(fams[0].KnownLBMs) < 2 {
		t.Fatalf("family should remember member LBMs: %v", fams[0].KnownLBMs)
	}
}

func TestFamilyExtractsHiddenThirdSection(t *testing.T) {
	_, fams := buildFamilyWrappers(t)
	if len(fams) != 1 {
		t.Fatalf("families = %d", len(fams))
	}
	// A page with a THIRD same-format section never seen in training.
	p, _ := multiSectionPage(3, []int{3, 2, 4}, "zz")
	secs := applyFamily(fams[0], p)
	if len(secs) != 3 {
		for _, s := range secs {
			t.Logf("family section %q [%d,%d)", s.Heading, s.Start, s.End)
		}
		t.Fatalf("family found %d sections, want 3 (one hidden)", len(secs))
	}
	if secs[2].Heading != "Heading C" {
		t.Fatalf("hidden section heading = %q", secs[2].Heading)
	}
	if len(secs[2].Records) != 4 {
		t.Fatalf("hidden section records = %d, want 4", len(secs[2].Records))
	}
	for _, s := range secs {
		if !s.FromFamily {
			t.Fatalf("family extractions must be marked FromFamily")
		}
	}
}

func TestFamilyType1SplitsBestCandidate(t *testing.T) {
	// A flat Type 1 layout: both sections sit in one container, delimited
	// by styled heading lines.  A second, farther container with the same
	// tag path holds no heading lines; the family must split the nearest
	// candidate, not the farther one.
	const heading = `<div style="font-size: 18px; font-weight: bold; color: #663300">%s</div>`
	p := render(`<body><h1>Site</h1><div>` +
		fmt.Sprintf(heading, "Heading A") +
		`<p><a href="/a1">Title a1</a></p><p><a href="/a2">Title a2</a></p>` +
		fmt.Sprintf(heading, "Heading B") +
		`<p><a href="/b1">Title b1</a></p>` +
		`</div><div><p>Furniture one</p><p>Furniture two</p></div></body>`)
	section := p.SectionRoot(1, 6)
	if section == nil {
		t.Fatalf("setup: no subtree covers the sections")
	}
	f := &Family{
		Type:     Type1,
		Pref:     dom.PathOf(section).Compact(),
		Sep:      Separator{StartSigs: []string{sigOf(t, p, 2, 3)}},
		LBMAttrs: p.Lines[1].Attrs,
	}
	if cands := dom.LocateCompactAll(p.Doc, f.Pref); len(cands) != 2 {
		t.Fatalf("setup: %d candidates, want the 2 containers", len(cands))
	}
	secs := applyFamily(f, p)
	if len(secs) != 2 {
		t.Fatalf("family found %d sections, want 2", len(secs))
	}
	for i, want := range []struct {
		heading string
		records int
	}{{"Heading A", 2}, {"Heading B", 1}} {
		if secs[i].Heading != want.heading || len(secs[i].Records) != want.records {
			t.Fatalf("section %d = %q with %d records, want %q with %d",
				i, secs[i].Heading, len(secs[i].Records), want.heading, want.records)
		}
	}
}

func TestFamilyIgnoresFurniture(t *testing.T) {
	_, fams := buildFamilyWrappers(t)
	// A page whose body also has plain divs (nav/footer) that share the
	// tag shape but lack the boundary-marker attribute above them.
	p := render(`<body><h1>Site</h1>
	<div><a href="/n1">Nav One</a> | <a href="/n2">Nav Two</a></div>
	<div style="font-size: 18px; font-weight: bold; color: #663300">Heading A</div>
	<table>
	<tr><td><a href="/a">Title a</a><br>snippet a</td></tr>
	<tr><td><a href="/b">Title b</a><br>snippet b</td></tr>
	</table>
	<div>Copyright notice.</div></body>`)
	secs := applyFamily(fams[0], p)
	for _, s := range secs {
		txt := ""
		for _, r := range s.Records {
			txt += strings.Join(r.Lines, " ") + " "
		}
		if strings.Contains(txt, "Nav One") || strings.Contains(txt, "Copyright") {
			t.Fatalf("family extracted page furniture: %q", txt)
		}
	}
}

func TestBuildFamiliesRejectsDifferentFormats(t *testing.T) {
	// Two wrappers with different separators must not form a family.
	var pages []*cluster.PageSections
	groups := []*cluster.Group{{}, {}}
	for i, tag := range []string{"aa", "bb"} {
		var sb strings.Builder
		sb.WriteString(`<body><h3>First</h3><table>`)
		for r := 0; r < 3+i; r++ {
			fmt.Fprintf(&sb, `<tr><td><a href="/%s%d">T %d</a><br>s %d</td></tr>`, tag, r, r, r)
		}
		sb.WriteString(`</table><h3>Second</h3><ul>`)
		for r := 0; r < 3; r++ {
			fmt.Fprintf(&sb, `<li>plain item %s %d</li>`, tag, r)
		}
		sb.WriteString(`</ul></body>`)
		p := render(sb.String())
		s1 := sect.New(p, 1, 1+2*(3+i))
		s1.LBM = 0
		for r := 0; r < 3+i; r++ {
			s1.Records = append(s1.Records, visual.Block{Page: p, Start: 1 + 2*r, End: 3 + 2*r})
		}
		start2 := 2 + 2*(3+i)
		s2 := sect.New(p, start2, start2+3)
		s2.LBM = start2 - 1
		for r := 0; r < 3; r++ {
			s2.Records = append(s2.Records, visual.Block{Page: p, Start: start2 + r, End: start2 + r + 1})
		}
		ps := &cluster.PageSections{Page: p, Query: []string{"q"}, Sections: []*sect.Section{s1, s2}}
		pages = append(pages, ps)
		groups[0].Instances = append(groups[0].Instances, cluster.NewInstance(i, ps, s1))
		groups[1].Instances = append(groups[1].Instances, cluster.NewInstance(i, ps, s2))
	}
	var ws []*SectionWrapper
	for order, g := range groups {
		ws = append(ws, Build(g, pages, order))
	}
	remaining, fams := BuildFamilies(ws)
	if len(fams) != 0 {
		t.Fatalf("different-format wrappers formed a family")
	}
	if len(remaining) != 2 {
		t.Fatalf("wrappers lost: %d remain", len(remaining))
	}
}
