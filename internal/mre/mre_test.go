package mre

import (
	"strings"
	"testing"

	"mse/internal/htmlparse"
	"mse/internal/layout"
	"mse/internal/synth"
	"mse/internal/visual"
)

// testParams are the paper's shared similarity parameters.
var testParams = visual.DefaultParams()

func render(src string) *layout.Page {
	return layout.Render(htmlparse.Parse(src))
}

// simpleSectionPage renders one 5-record section with template noise.
func simpleSectionPage() *layout.Page {
	var sb strings.Builder
	sb.WriteString(`<body><h1>TestEngine</h1>
	<div><a href="/h">Home</a> | <a href="/a">About</a></div>
	<div>Your search returned 99 matches.</div><hr>
	<h3>Results</h3><table>`)
	titles := []string{"Alpha One", "Beta Two", "Gamma Three", "Delta Four", "Epsilon Five"}
	for i, t := range titles {
		sb.WriteString(`<tr><td><a href="/r` + string(rune('0'+i)) + `">` + t +
			`</a><br>snippet text for this result</td></tr>`)
	}
	sb.WriteString(`</table><hr><div>Copyright 2006</div></body>`)
	return render(sb.String())
}

func TestExtractFindsMainSection(t *testing.T) {
	p := simpleSectionPage()
	mrs := Extract(p, &testParams, DefaultOptions(), nil)
	if len(mrs) == 0 {
		t.Fatalf("no MRs extracted")
	}
	// Some MR must contain all five records.
	var best *int
	for i, mr := range mrs {
		if len(mr.Records) == 5 {
			best = &i
			break
		}
	}
	if best == nil {
		counts := make([]int, len(mrs))
		for i, mr := range mrs {
			counts[i] = len(mr.Records)
		}
		t.Fatalf("no MR with 5 records; record counts = %v", counts)
	}
	mr := mrs[*best]
	txt := mr.Block().Text()
	for _, want := range []string{"Alpha One", "Epsilon Five"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("MR text missing %q:\n%s", want, txt)
		}
	}
	if strings.Contains(txt, "Copyright") || strings.Contains(txt, "Your search") {
		t.Fatalf("MR leaked template content:\n%s", txt)
	}
}

func TestExtractRecordBoundaries(t *testing.T) {
	p := simpleSectionPage()
	mrs := Extract(p, &testParams, DefaultOptions(), nil)
	for _, mr := range mrs {
		if len(mr.Records) != 5 {
			continue
		}
		for _, r := range mr.Records {
			if r.Len() != 2 {
				t.Fatalf("record should have 2 lines (title+snippet), got %d: %q",
					r.Len(), r.Text())
			}
			lines := r.Lines()
			if lines[0].Type != layout.LinkLine && lines[0].Type != layout.LinkTextLine {
				t.Fatalf("record should start at its title line, got %v %q",
					lines[0].Type, lines[0].Text)
			}
		}
		return
	}
	t.Fatalf("no 5-record MR found")
}

func TestExtractMultipleSections(t *testing.T) {
	src := `<body><h3>News</h3><table>
	<tr><td><a href="/n1">News One</a><br>news snippet a</td></tr>
	<tr><td><a href="/n2">News Two</a><br>news snippet b</td></tr>
	<tr><td><a href="/n3">News Three</a><br>news snippet c</td></tr>
	<tr><td><a href="/n4">News Four</a><br>news snippet d</td></tr>
	</table>
	<h3>Products</h3><ul style="margin-left: 60px">
	<li><a href="/p1">Prod One</a><br>price info<br>more details</li>
	<li><a href="/p2">Prod Two</a><br>price info<br>more details</li>
	<li><a href="/p3">Prod Three</a><br>price info<br>more details</li>
	</ul></body>`
	p := render(src)
	mrs := Extract(p, &testParams, DefaultOptions(), nil)
	// MRE must find at least two distinct areas (ViNTs would keep only
	// one).
	if len(mrs) < 2 {
		for _, mr := range mrs {
			t.Logf("MR: %v\n%s", mr, mr.Block().Text())
		}
		t.Fatalf("MRE found %d MRs, want >= 2", len(mrs))
	}
	foundNews, foundProd := false, false
	for _, mr := range mrs {
		txt := mr.Block().Text()
		if strings.Contains(txt, "News One") && strings.Contains(txt, "News Four") {
			foundNews = true
		}
		if strings.Contains(txt, "Prod One") && strings.Contains(txt, "Prod Three") {
			foundProd = true
		}
	}
	if !foundNews || !foundProd {
		t.Fatalf("missing section: news=%v products=%v", foundNews, foundProd)
	}
}

func TestExtractIgnoresShortRepeats(t *testing.T) {
	// Two records only: below MinRecords, MRE must not report the section
	// (the DSE path handles it instead).
	src := `<body><h3>Tiny</h3><table>
	<tr><td><a href="/a">One</a><br>snip</td></tr>
	<tr><td><a href="/b">Two</a><br>snip</td></tr>
	</table></body>`
	mrs := Extract(render(src), &testParams, DefaultOptions(), nil)
	for _, mr := range mrs {
		if strings.Contains(mr.Block().Text(), "One") && len(mr.Records) >= 3 {
			t.Fatalf("short section wrongly extracted: %v", mr)
		}
	}
}

func TestExtractEmptyPage(t *testing.T) {
	if got := Extract(render(`<body></body>`), &testParams, DefaultOptions(), nil); len(got) != 0 {
		t.Fatalf("empty page yielded %d MRs", len(got))
	}
}

func TestExtractStaticRepeatsArePossible(t *testing.T) {
	// Static repeating footers can produce MRs; the refinement step (not
	// MRE) is responsible for discarding them.  This documents the
	// contract: MRE may return them, and must return the real section too.
	src := `<body>
	<h3>Results</h3><div>
	<div><a href="/r1">Res One</a><br>text a</div>
	<div><a href="/r2">Res Two</a><br>text b</div>
	<div><a href="/r3">Res Three</a><br>text c</div>
	<div><a href="/r4">Res Four</a><br>text d</div>
	</div>
	<div><a href="/f1">Footer link one</a></div>
	<div><a href="/f2">Footer link two</a></div>
	<div><a href="/f3">Footer link three</a></div>
	</body>`
	mrs := Extract(render(src), &testParams, DefaultOptions(), nil)
	found := false
	for _, mr := range mrs {
		if strings.Contains(mr.Block().Text(), "Res One") && len(mr.Records) >= 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("real section lost among static repeats")
	}
}

func TestExtractOnSyntheticEngines(t *testing.T) {
	// Smoke test over synthetic engines: for every page whose first
	// section has >= 3 records, MRE should produce at least one MR
	// overlapping it.
	engines := synth.GenerateTestbed(synth.Config{Seed: 7, Engines: 12, MultiSection: 5, Queries: 2})
	checked, hit := 0, 0
	for _, e := range engines {
		for q := 0; q < 2; q++ {
			gp := e.Page(q)
			if len(gp.Truth.Sections) == 0 || len(gp.Truth.Sections[0].Records) < 3 {
				continue
			}
			checked++
			p := render(gp.HTML)
			mrs := Extract(p, &testParams, DefaultOptions(), nil)
			marker := gp.Truth.Sections[0].Records[0].Marker
			for _, mr := range mrs {
				if strings.Contains(mr.Block().Text(), marker) {
					hit++
					break
				}
			}
		}
	}
	if checked == 0 {
		t.Fatalf("no checkable pages generated")
	}
	if float64(hit) < 0.9*float64(checked) {
		t.Fatalf("MRE found the main section on only %d/%d pages", hit, checked)
	}
}
