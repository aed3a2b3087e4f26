package cluster

import (
	"fmt"
	"strings"
	"testing"

	"mse/internal/htmlparse"
	"mse/internal/layout"
	"mse/internal/sect"
	"mse/internal/visual"
)

// twoSectionPage builds a page with a News table section and a Products
// list section whose record counts vary.
func twoSectionPage(nNews, nProd int, tag string) (*layout.Page, []*sect.Section) {
	var sb strings.Builder
	sb.WriteString(`<body><h3>News</h3><table>`)
	for i := 0; i < nNews; i++ {
		fmt.Fprintf(&sb, `<tr><td><a href="/n%s%d">News item %s %d</a><br>news snippet %d</td></tr>`,
			tag, i, tag, i, i)
	}
	sb.WriteString(`</table><h3>Products</h3><ul>`)
	for i := 0; i < nProd; i++ {
		fmt.Fprintf(&sb, `<li><a href="/p%s%d">Product %s %d</a><br>price %d dollars</li>`,
			tag, i, tag, i, i)
	}
	sb.WriteString(`</ul></body>`)
	p := layout.Render(htmlparse.Parse(sb.String()))

	// Hand-build the refined sections (clustering is under test, not the
	// earlier pipeline).
	var sections []*sect.Section
	newsStart := 1
	news := sect.New(p, newsStart, newsStart+2*nNews)
	news.LBM = 0
	news.RBM = newsStart + 2*nNews
	for i := 0; i < nNews; i++ {
		news.Records = append(news.Records,
			visual.Block{Page: p, Start: newsStart + 2*i, End: newsStart + 2*i + 2})
	}
	sections = append(sections, news)
	prodStart := newsStart + 2*nNews + 1
	prod := sect.New(p, prodStart, prodStart+2*nProd)
	prod.LBM = prodStart - 1
	for i := 0; i < nProd; i++ {
		prod.Records = append(prod.Records,
			visual.Block{Page: p, Start: prodStart + 2*i, End: prodStart + 2*i + 2})
	}
	sections = append(sections, prod)
	return p, sections
}

func TestGroupInstancesByScheme(t *testing.T) {
	var pages []*PageSections
	for i, tag := range []string{"aa", "bb", "cc"} {
		n := 3 + i // varying record counts
		p, secs := twoSectionPage(n, 2+i, tag)
		pages = append(pages, &PageSections{Page: p, Query: []string{"q"}, Sections: secs})
	}
	groups := GroupInstances(pages, DefaultOptions(), 0, nil)
	if len(groups) != 2 {
		for gi, g := range groups {
			for _, inst := range g.Instances {
				t.Logf("group %d: page %d %v lbm=%q", gi, inst.PageIndex,
					inst.Section, inst.Section.LBMText())
			}
		}
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	for _, g := range groups {
		if len(g.Instances) != 3 {
			t.Fatalf("group should span all 3 pages, got %d", len(g.Instances))
		}
		// All members of a group share the LBM text.
		lbm := g.Instances[0].Section.LBMText()
		for _, inst := range g.Instances[1:] {
			if inst.Section.LBMText() != lbm {
				t.Fatalf("mixed group: %q vs %q", lbm, inst.Section.LBMText())
			}
		}
	}
}

func TestGroupDanglingInstanceDropped(t *testing.T) {
	// Page 0 has News+Products; page 1 has News only.  Products on page 0
	// is dangling and must not form a group.
	p0, secs0 := twoSectionPage(3, 3, "aa")
	p1, secs1 := twoSectionPage(4, 0, "bb")
	pages := []*PageSections{
		{Page: p0, Query: []string{"q"}, Sections: secs0},
		{Page: p1, Query: []string{"q"}, Sections: secs1[:1]},
	}
	groups := GroupInstances(pages, DefaultOptions(), 0, nil)
	if len(groups) != 1 {
		t.Fatalf("groups = %d, want 1 (News only)", len(groups))
	}
	if got := groups[0].Instances[0].Section.LBMText(); got != "News" {
		t.Fatalf("surviving group LBM = %q", got)
	}
}

func TestGroupInstancesEmpty(t *testing.T) {
	if got := GroupInstances(nil, DefaultOptions(), 0, nil); len(got) != 0 {
		t.Fatalf("no pages should give no groups")
	}
}

func TestScoreDiscriminates(t *testing.T) {
	p0, secs0 := twoSectionPage(3, 3, "aa")
	p1, secs1 := twoSectionPage(4, 2, "bb")
	ps0 := &PageSections{Page: p0, Query: []string{"q"}, Sections: secs0}
	ps1 := &PageSections{Page: p1, Query: []string{"q"}, Sections: secs1}
	newsA := NewInstance(0, ps0, secs0[0])
	prodA := NewInstance(0, ps0, secs0[1])
	newsB := NewInstance(1, ps1, secs1[0])
	prodB := NewInstance(1, ps1, secs1[1])
	opt := DefaultOptions()
	if Score(newsA, newsB, opt, nil) <= Score(newsA, prodB, opt, nil) {
		t.Fatalf("same-schema score should beat cross-schema score")
	}
	if Score(prodA, prodB, opt, nil) <= Score(prodA, newsB, opt, nil) {
		t.Fatalf("same-schema score should beat cross-schema score")
	}
	if s := Score(newsA, newsB, opt, nil); s < opt.MatchThreshold {
		t.Fatalf("same-schema score %g below threshold", s)
	}
}
