package dse

import (
	"fmt"
	"strings"
	"testing"

	"mse/internal/htmlparse"
	"mse/internal/layout"
	"mse/internal/mre"
	"mse/internal/synth"
	"mse/internal/visual"
)

// testParams are the paper's shared similarity parameters.
var testParams = visual.DefaultParams()

func render(src string) *layout.Page {
	return layout.Render(htmlparse.Parse(src))
}

// enginePage fabricates a result page for query terms with one dynamic
// section whose records carry unique ids.
func enginePage(query [2]string, ids []string) *layout.Page {
	var sb strings.Builder
	fmt.Fprintf(&sb, `<body><h1>TestSite</h1>
	<div><a href="/h">Home</a> | <a href="/a">About</a></div>
	<div>Your search returned %d matches for %s %s.</div>
	<hr>
	<h3>Results</h3><table>`, 100+len(ids), query[0], query[1])
	for _, id := range ids {
		fmt.Fprintf(&sb, `<tr><td><a href="/doc/%s">Title %s about %s</a><br>snippet %s here</td></tr>`,
			id, id, query[0], id)
	}
	sb.WriteString(`</table>
	<div><a href="/more">Click Here for More ...</a></div>
	<hr><div>Copyright 2006 All rights reserved.</div></body>`)
	return render(sb.String())
}

func inputsForPages(pages []*layout.Page, queries [][]string) []*PageInput {
	ins := make([]*PageInput, len(pages))
	for i, p := range pages {
		ins[i] = &PageInput{Page: p, Query: queries[i], MRs: mre.Extract(p, &testParams, mre.DefaultOptions(), nil)}
	}
	return ins
}

func TestCleanLineRemovesDynamics(t *testing.T) {
	p := render(`<body><div>Your search returned 578 matches for knee injury.</div></body>`)
	got := CleanLine(&p.Lines[0], []string{"knee", "injury"})
	if strings.ContainsAny(got, "0123456789") {
		t.Fatalf("digits remain: %q", got)
	}
	if strings.Contains(got, "knee") || strings.Contains(got, "injury") {
		t.Fatalf("query terms remain: %q", got)
	}
	// The cleaned text of the same semi-dynamic line with other dynamics
	// must be identical.
	p2 := render(`<body><div>Your search returned 9 matches for jazz guitar.</div></body>`)
	got2 := CleanLine(&p2.Lines[0], []string{"jazz", "guitar"})
	if got != got2 {
		t.Fatalf("cleaned semi-dynamic lines differ: %q vs %q", got, got2)
	}
}

func TestCleanLineQueryTermWithPunctuation(t *testing.T) {
	p := render(`<body><div>Results for knee, sorted by date</div></body>`)
	got := CleanLine(&p.Lines[0], []string{"knee"})
	if strings.Contains(got, "knee") {
		t.Fatalf("punctuated query term not removed: %q", got)
	}
}

func TestCSBMsMarkTemplateNotRecords(t *testing.T) {
	pages := []*layout.Page{
		enginePage([2]string{"knee", "injury"}, []string{"aa", "bb", "cc", "dd"}),
		enginePage([2]string{"jazz", "guitar"}, []string{"ee", "ff", "gg"}),
	}
	queries := [][]string{{"knee", "injury"}, {"jazz", "guitar"}}
	ins := inputsForPages(pages, queries)
	marks := IdentifyCSBMs(ins, DefaultOptions())

	wantCSBM := []string{"TestSite", "Home", "Your search returned",
		"Results", "Click Here for More", "Copyright"}
	for pi, p := range pages {
		for _, want := range wantCSBM {
			found := false
			for i, l := range p.Lines {
				if strings.Contains(l.Text, want) && marks[pi][i] {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("page %d: template line %q not marked CSBM", pi, want)
			}
		}
		// Record lines must not be CSBMs.
		for i, l := range p.Lines {
			if strings.Contains(l.Text, "Title ") && marks[pi][i] {
				t.Errorf("page %d: record line %q wrongly marked CSBM", pi, l.Text)
			}
		}
	}
}

func TestIdentifyDSsCoversRecords(t *testing.T) {
	pages := []*layout.Page{
		enginePage([2]string{"knee", "injury"}, []string{"aa", "bb", "cc", "dd"}),
		enginePage([2]string{"jazz", "guitar"}, []string{"ee", "ff", "gg"}),
	}
	queries := [][]string{{"knee", "injury"}, {"jazz", "guitar"}}
	ins := inputsForPages(pages, queries)
	dss, _ := Run(ins, DefaultOptions())

	for pi, pageDSs := range dss {
		// Some DS must cover all record titles and have the section
		// heading as its LBM.
		found := false
		for _, ds := range pageDSs {
			txt := ds.Block().Text()
			if strings.Contains(txt, "Title ") && ds.LBMText() == "Results" &&
				strings.Contains(ds.RBMText(), "Click Here") {
				found = true
			}
		}
		if !found {
			for _, ds := range pageDSs {
				t.Logf("page %d DS %v lbm=%q rbm=%q", pi, ds, ds.LBMText(), ds.RBMText())
			}
			t.Fatalf("page %d: no DS bounded by Results/Click Here", pi)
		}
	}
}

func TestFalseSBMFiltered(t *testing.T) {
	// "In stock." recurs in every record; it must not become a CSBM when
	// the MR is known.
	mk := func(query [2]string, ids []string) *layout.Page {
		var sb strings.Builder
		sb.WriteString(`<body><h3>Products</h3><table>`)
		for _, id := range ids {
			fmt.Fprintf(&sb, `<tr><td><a href="/p/%s">Product %s %s</a><br>In stock.<br>snippet %s</td></tr>`,
				id, id, query[0], id)
		}
		sb.WriteString(`</table><div>Copyright 2006.</div></body>`)
		return render(sb.String())
	}
	pages := []*layout.Page{
		mk([2]string{"camera", "lens"}, []string{"aa", "bb", "cc", "dd"}),
		mk([2]string{"laptop", "bag"}, []string{"ee", "ff", "gg", "hh"}),
	}
	queries := [][]string{{"camera", "lens"}, {"laptop", "bag"}}
	ins := inputsForPages(pages, queries)
	marks := IdentifyCSBMs(ins, DefaultOptions())
	for pi, p := range pages {
		for i, l := range p.Lines {
			if l.Text == "In stock." && marks[pi][i] {
				t.Fatalf("page %d: false SBM %q not filtered", pi, l.Text)
			}
		}
	}
}

func TestHiddenSectionYieldsSeparateDSs(t *testing.T) {
	// Page 1 has sections A and B; page 2 has only A.  DSE must still
	// place boundaries around A's records on both pages.
	p1 := render(`<body><h3>Alpha</h3>
	<div><a href="/a1">A one xx</a></div>
	<div><a href="/a2">A two yy</a></div>
	<h3>Beta</h3>
	<div><a href="/b1">B one zz</a></div>
	<div>footer text here</div></body>`)
	p2 := render(`<body><h3>Alpha</h3>
	<div><a href="/a3">A three qq</a></div>
	<div><a href="/a4">A four ww</a></div>
	<div>footer text here</div></body>`)
	ins := []*PageInput{
		{Page: p1, Query: []string{"x"}},
		{Page: p2, Query: []string{"y"}},
	}
	dss, marks := Run(ins, DefaultOptions())
	// "Alpha" and "footer text here" are static; "Beta" appears only on
	// page 1 so it cannot be matched and stays inside a DS there.
	if !markedText(p1, marks[0], "Alpha") || !markedText(p2, marks[1], "Alpha") {
		t.Fatalf("shared heading not marked CSBM")
	}
	if markedText(p1, marks[0], "Beta") {
		t.Fatalf("unmatched heading wrongly marked CSBM")
	}
	if len(dss[0]) == 0 || len(dss[1]) == 0 {
		t.Fatalf("no DSs identified")
	}
}

func markedText(p *layout.Page, marks []bool, text string) bool {
	for i, l := range p.Lines {
		if l.Text == text && marks[i] {
			return true
		}
	}
	return false
}

func TestRunOnSyntheticPages(t *testing.T) {
	engines := synth.GenerateTestbed(synth.Config{Seed: 11, Engines: 8, MultiSection: 4, Queries: 3})
	for _, e := range engines {
		var ins []*PageInput
		var gps []*synth.GenPage
		for q := 0; q < 3; q++ {
			gp := e.Page(q)
			p := render(gp.HTML)
			ins = append(ins, &PageInput{Page: p, Query: gp.Query,
				MRs: mre.Extract(p, &testParams, mre.DefaultOptions(), nil)})
			gps = append(gps, gp)
		}
		dss, marks := Run(ins, DefaultOptions())
		for pi, gp := range gps {
			// Every record marker must fall inside some DS (records are
			// dynamic and can never be CSBMs).
			p := ins[pi].Page
			for i, l := range p.Lines {
				if strings.Contains(l.Text, "qj") && marks[pi][i] &&
					!strings.Contains(l.Text, "Click Here") {
					t.Fatalf("engine %d page %d: record line %q marked CSBM",
						e.ID, pi, l.Text)
				}
			}
			covered := 0
			total := 0
			for _, s := range gp.Truth.Sections {
				for _, r := range s.Records {
					total++
					for _, ds := range dss[pi] {
						if strings.Contains(ds.Block().Text(), r.Marker) {
							covered++
							break
						}
					}
				}
			}
			if total > 0 && covered < total {
				t.Fatalf("engine %d page %d: only %d/%d records inside DSs",
					e.ID, pi, covered, total)
			}
		}
	}
}
