package refine

import (
	"fmt"
	"strings"
	"testing"

	"mse/internal/dse"
	"mse/internal/htmlparse"
	"mse/internal/layout"
	"mse/internal/mining"
	"mse/internal/mre"
	"mse/internal/sect"
	"mse/internal/visual"
)

// testParams are the paper's shared similarity parameters.
var testParams = visual.DefaultParams()

func render(src string) *layout.Page {
	return layout.Render(htmlparse.Parse(src))
}

// pipelineTo runs MRE + DSE over a pair of pages and refines page 0.
func pipelineTo(t *testing.T, srcs []string, queries [][]string) (*layout.Page, []*sect.Section, []*sect.Section, []bool) {
	t.Helper()
	var ins []*dse.PageInput
	var pages []*layout.Page
	for i, src := range srcs {
		p := render(src)
		pages = append(pages, p)
		ins = append(ins, &dse.PageInput{Page: p, Query: queries[i],
			MRs: mre.Extract(p, &testParams, mre.DefaultOptions(), nil)})
	}
	dss, marks := dse.Run(ins, dse.DefaultOptions())
	refined := Refine(pages[0], ins[0].MRs, dss[0], marks[0], &testParams, mining.DefaultOptions(), DefaultOptions(), nil)
	return pages[0], ins[0].MRs, refined, marks[0]
}

func resultPage(query [2]string, ids []string, extra string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `<body><h1>Site</h1>
	<div>Your search returned %d matches for %s %s.</div><hr>
	<h3>Results</h3><table>`, len(ids)*7, query[0], query[1])
	for _, id := range ids {
		fmt.Fprintf(&sb, `<tr><td><a href="/doc/%s">Title %s %s</a><br>snippet %s text</td></tr>`,
			id, id, query[0], id)
	}
	sb.WriteString(`</table>`)
	sb.WriteString(extra)
	sb.WriteString(`<hr><div>Copyright 2006 rights.</div></body>`)
	return sb.String()
}

func TestRefineCase1ExactMatch(t *testing.T) {
	srcs := []string{
		resultPage([2]string{"knee", "pain"}, []string{"aa", "bb", "cc", "dd"}, ""),
		resultPage([2]string{"jazz", "band"}, []string{"ee", "ff", "gg"}, ""),
	}
	page, _, refined, _ := pipelineTo(t, srcs, [][]string{{"knee", "pain"}, {"jazz", "band"}})
	_ = page
	// One refined section must contain the four records with records set.
	var hit *sect.Section
	for _, s := range refined {
		if strings.Contains(s.Block().Text(), "Title aa") {
			hit = s
		}
	}
	if hit == nil {
		t.Fatalf("record section lost in refinement")
	}
	if len(hit.Records) != 4 {
		for _, r := range hit.Records {
			t.Logf("rec: %q", r.Text())
		}
		t.Fatalf("section has %d records, want 4", len(hit.Records))
	}
	if !strings.Contains(hit.LBMText(), "Results") {
		t.Fatalf("LBM = %q, want Results", hit.LBMText())
	}
}

func TestRefineCase5DiscardsStaticMR(t *testing.T) {
	// Static footers repeat on both pages identically -> they are CSBMs,
	// so any MR over them has no DS overlap and must vanish.
	foot := `<div><a href="/f1">Footer One</a></div>
	<div><a href="/f2">Footer Two</a></div>
	<div><a href="/f3">Footer Three</a></div>
	<div><a href="/f4">Footer Four</a></div>`
	srcs := []string{
		resultPage([2]string{"knee", "pain"}, []string{"aa", "bb", "cc", "dd"}, foot),
		resultPage([2]string{"jazz", "band"}, []string{"ee", "ff", "gg"}, foot),
	}
	_, _, refined, _ := pipelineTo(t, srcs, [][]string{{"knee", "pain"}, {"jazz", "band"}})
	for _, s := range refined {
		if strings.Contains(s.Block().Text(), "Footer One") {
			t.Fatalf("static footer survived refinement: %v\n%s", s, s.Block().Text())
		}
	}
}

func TestRefineKeepsSmallDSWithoutMR(t *testing.T) {
	// A one-record section cannot be found by MRE; refinement must keep
	// its DS (record-less) for mining.
	extra := `<h3>Sponsored</h3><div><a href="/sp/PAGEID">Sponsor PAGEID deal</a></div>`
	srcs := []string{
		resultPage([2]string{"knee", "pain"}, []string{"aa", "bb", "cc", "dd"},
			strings.ReplaceAll(extra, "PAGEID", "xx")),
		resultPage([2]string{"jazz", "band"}, []string{"ee", "ff", "gg"},
			strings.ReplaceAll(extra, "PAGEID", "yy")),
	}
	_, _, refined, _ := pipelineTo(t, srcs, [][]string{{"knee", "pain"}, {"jazz", "band"}})
	var hit *sect.Section
	for _, s := range refined {
		if strings.Contains(s.Block().Text(), "Sponsor xx") {
			hit = s
		}
	}
	if hit == nil {
		t.Fatalf("small DS lost")
	}
	if hit.LBMText() != "Sponsored" {
		t.Fatalf("small DS LBM = %q", hit.LBMText())
	}
}

func TestRefineCase4TrimsOverextendedMR(t *testing.T) {
	// Build an MR that overshoots into the RBM zone, plus the true DS.
	p := render(resultPage([2]string{"knee", "pain"}, []string{"aa", "bb", "cc", "dd"}, ""))
	// Find the line range of the records.
	var first, last int = -1, -1
	for i, l := range p.Lines {
		if strings.Contains(l.Text, "Title ") && first < 0 {
			first = i
		}
		if strings.Contains(l.Text, "snippet ") {
			last = i
		}
	}
	if first < 0 || last < 0 {
		t.Fatalf("page layout unexpected")
	}
	// Fabricate an overshooting MR: records of 2 lines each, with a final
	// bogus record swallowing the RBM/footer lines.
	mr := sect.New(p, first, last+3)
	for s := first; s <= last; s += 2 {
		mr.Records = append(mr.Records, visual.Block{Page: p, Start: s, End: s + 2})
	}
	mr.Records = append(mr.Records, visual.Block{Page: p, Start: last + 1, End: last + 3})
	// The true DS (as DSE would find it).
	ds := sect.New(p, first, last+1)
	ds.LBM = first - 1
	ds.RBM = last + 1
	csbm := make([]bool, len(p.Lines))
	for i := range csbm {
		csbm[i] = i < first || i > last
	}
	refined := Refine(p, []*sect.Section{mr}, []*sect.Section{ds}, csbm, &testParams, mining.DefaultOptions(), DefaultOptions(), nil)
	if len(refined) != 1 {
		t.Fatalf("refined = %d sections, want 1", len(refined))
	}
	got := refined[0]
	if got.Start != first || got.End != last+1 {
		t.Fatalf("refined range [%d,%d), want [%d,%d)", got.Start, got.End, first, last+1)
	}
	if len(got.Records) != 4 {
		t.Fatalf("records = %d, want 4", len(got.Records))
	}
}

func TestRefineMergesFalseBoundary(t *testing.T) {
	// A false CSBM line splits one true section into two DSs; an MR
	// bridging the gap must trigger a merge.
	p := render(`<body><h3>Items</h3>
	<div><a href="/1">Item One</a><br>first snippet</div>
	<div><a href="/2">Item Two</a><br>second snippet</div>
	<div><a href="/3">Item Three</a><br>third snippet</div>
	<div><a href="/4">Item Four</a><br>fourth snippet</div>
	</body>`)
	// Lines: 0=Items, 1..8 records (2 lines each).
	mrs := mre.Extract(p, &testParams, mre.DefaultOptions(), nil)
	if len(mrs) == 0 {
		t.Fatalf("MRE found nothing")
	}
	csbm := make([]bool, len(p.Lines))
	csbm[0] = true
	csbm[4] = true // false boundary inside record 2's span
	ds1 := sect.New(p, 1, 4)
	ds1.LBM = 0
	ds1.RBM = 4
	ds2 := sect.New(p, 5, len(p.Lines))
	ds2.LBM = 4
	refined := Refine(p, mrs, []*sect.Section{ds1, ds2}, csbm, &testParams, mining.DefaultOptions(), DefaultOptions(), nil)
	// All four records must end up in one section.
	for _, s := range refined {
		if strings.Contains(s.Block().Text(), "Item One") {
			if !strings.Contains(s.Block().Text(), "Item Four") {
				t.Fatalf("false boundary not merged: %v\n%s", s, s.Block().Text())
			}
			if len(s.Records) != 4 {
				t.Fatalf("merged section has %d records, want 4", len(s.Records))
			}
			return
		}
	}
	t.Fatalf("section lost")
}

func TestRefineEmptyInputs(t *testing.T) {
	p := render(`<body><p>x</p></body>`)
	if got := Refine(p, nil, nil, []bool{false}, &testParams, mining.DefaultOptions(), DefaultOptions(), nil); got != nil {
		t.Fatalf("no DSs should refine to nil, got %v", got)
	}
	ds := sect.New(p, 0, 1)
	got := Refine(p, nil, []*sect.Section{ds}, []bool{false}, &testParams, mining.DefaultOptions(), DefaultOptions(), nil)
	if len(got) != 1 || got[0] != ds {
		t.Fatalf("bare DS should pass through")
	}
}
