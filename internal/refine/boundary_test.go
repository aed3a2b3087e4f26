package refine

// Unit tests for the boundary-reasoning helpers added on top of the
// Figure-8 core: hidden-boundary splitting, leftover attachment, and
// bare-DS heading handling.

import (
	"testing"

	"mse/internal/layout"
	"mse/internal/mining"
	"mse/internal/sect"
	"mse/internal/visual"
)

// hiddenBoundaryPage renders two same-format sections whose shared DS has
// the second section's heading *inside* it (the heading never matched
// across pages, so it is not a CSBM).
func hiddenBoundaryPage() *layout.Page {
	return render(`<body>
	<h3>Known</h3>
	<div><a href="/a1">Alpha one</a><br>snippet one</div>
	<div><a href="/a2">Alpha two</a><br>snippet two</div>
	<div><a href="/a3">Alpha three</a><br>snippet three</div>
	<h3>Hidden Heading</h3>
	<div><a href="/b1">Beta one</a><br>snippet four</div>
	<div><a href="/b2">Beta two</a><br>snippet five</div>
	</body>`)
}

func TestHiddenBoundarySplitsDS(t *testing.T) {
	p := hiddenBoundaryPage()
	// Lines: 0 Known | 1-6 alpha records | 7 Hidden Heading | 8-11 beta.
	mr := sect.New(p, 1, 12)
	for s := 1; s < 7; s += 2 {
		mr.Records = append(mr.Records, visual.Block{Page: p, Start: s, End: s + 2})
	}
	for s := 8; s < 12; s += 2 {
		mr.Records = append(mr.Records, visual.Block{Page: p, Start: s, End: s + 2})
	}
	ds := sect.New(p, 1, 12) // DSE missed the hidden heading
	ds.LBM = 0
	csbm := make([]bool, len(p.Lines))
	csbm[0] = true
	out := Refine(p, []*sect.Section{mr}, []*sect.Section{ds}, csbm, &testParams, mining.DefaultOptions(), DefaultOptions(), nil)
	if len(out) != 2 {
		for _, s := range out {
			t.Logf("section %v:\n%s", s, s.Block().Text())
		}
		t.Fatalf("hidden boundary not split: %d sections", len(out))
	}
	if out[1].LBMText() != "Hidden Heading" {
		t.Fatalf("second section LBM = %q", out[1].LBMText())
	}
	if len(out[0].Records) != 3 || len(out[1].Records) != 2 {
		t.Fatalf("record counts = %d / %d", len(out[0].Records), len(out[1].Records))
	}
}

func TestLeftoverAttachedWhenUnexplained(t *testing.T) {
	// A DS whose tail (a trailer line) no MR explains: it must be attached
	// to the core section, not orphaned.
	p := render(`<body><h3>Sec</h3>
	<div><a href="/1">One</a><br>snippet one</div>
	<div><a href="/2">Two</a><br>snippet two</div>
	<div><a href="/3">Three</a><br>snippet three</div>
	<div><a href="/more">More stuff results ...</a></div>
	</body>`)
	// Lines: 0 heading, 1-6 records, 7 trailer.
	mr := sect.New(p, 1, 7)
	for s := 1; s < 7; s += 2 {
		mr.Records = append(mr.Records, visual.Block{Page: p, Start: s, End: s + 2})
	}
	ds := sect.New(p, 1, 8)
	ds.LBM = 0
	csbm := make([]bool, len(p.Lines))
	csbm[0] = true
	out := Refine(p, []*sect.Section{mr}, []*sect.Section{ds}, csbm, &testParams, mining.DefaultOptions(), DefaultOptions(), nil)
	if len(out) != 1 {
		t.Fatalf("leftover orphaned: %d sections", len(out))
	}
	if out[0].End != 8 {
		t.Fatalf("trailer not attached: section ends at %d", out[0].End)
	}
}

func TestBareDSLeadingHeadingBecomesLBM(t *testing.T) {
	// A record-less DS starting with a decorated heading line: the heading
	// is the section's boundary marker, not content.
	p := render(`<body>
	<h3>Lonely</h3>
	<div><a href="/x">Only result</a><br>its snippet</div>
	</body>`)
	ds := sect.New(p, 0, 3)
	csbm := make([]bool, len(p.Lines))
	out := Refine(p, nil, []*sect.Section{ds}, csbm, &testParams, mining.DefaultOptions(), DefaultOptions(), nil)
	if len(out) != 1 {
		t.Fatalf("sections = %d", len(out))
	}
	if out[0].Start != 1 {
		t.Fatalf("heading still inside section: start = %d", out[0].Start)
	}
	if out[0].LBMText() != "Lonely" {
		t.Fatalf("LBM = %q", out[0].LBMText())
	}
}

func TestBareDSInteriorHeadingSplits(t *testing.T) {
	p := render(`<body>
	<div><a href="/a">A result</a><br>snip a</div>
	<h3>Second Part</h3>
	<div><a href="/b">B result</a><br>snip b</div>
	</body>`)
	ds := sect.New(p, 0, 5)
	csbm := make([]bool, len(p.Lines))
	out := Refine(p, nil, []*sect.Section{ds}, csbm, &testParams, mining.DefaultOptions(), DefaultOptions(), nil)
	if len(out) != 2 {
		t.Fatalf("interior heading not split: %d sections", len(out))
	}
	if out[1].LBMText() != "Second Part" {
		t.Fatalf("second LBM = %q", out[1].LBMText())
	}
}

func TestDecoratedClassification(t *testing.T) {
	cases := []struct {
		attr layout.TextAttr
		want bool
	}{
		{layout.TextAttr{Font: "times", Size: 16, Color: "#000000"}, false},
		{layout.TextAttr{Font: "times", Size: 16, Style: layout.Bold, Color: "#000000"}, true},
		{layout.TextAttr{Font: "times", Size: 19, Color: "#000000"}, true},
		{layout.TextAttr{Font: "times", Size: 16, Color: "#008000"}, false}, // color alone: URL green
		{layout.TextAttr{Font: "times", Size: 16, Style: layout.Italic, Color: "#000000"}, false},
	}
	for _, c := range cases {
		if got := decorated(c.attr); got != c.want {
			t.Errorf("decorated(%+v) = %v, want %v", c.attr, got, c.want)
		}
	}
}

func TestHeadingLikeRequiresTextLine(t *testing.T) {
	p := render(`<body>
	<div><b>Bold Plain Heading</b></div>
	<div><a href="/x"><b>Bold Link</b></a></div>
	</body>`)
	content := map[layout.TextAttr]bool{}
	for _, a := range p.Lines[1].Attrs {
		content[a] = true
	}
	if !headingLike(&p.Lines[0], content) {
		t.Fatalf("bold text line should be heading-like")
	}
	if headingLike(&p.Lines[1], content) {
		t.Fatalf("link line is never heading-like")
	}
}

func TestCSBMScanHelpers(t *testing.T) {
	csbm := []bool{true, false, false, true, false}
	if got := previousCSBM(csbm, 3); got != 0 {
		t.Fatalf("previousCSBM = %d", got)
	}
	if got := previousCSBM(csbm, 0); got != -1 {
		t.Fatalf("previousCSBM at start = %d", got)
	}
	if got := nextCSBM(csbm, 1); got != 3 {
		t.Fatalf("nextCSBM = %d", got)
	}
	if got := nextCSBM(csbm, 4); got != -1 {
		t.Fatalf("nextCSBM past end = %d", got)
	}
}

func TestHasRecordInside(t *testing.T) {
	p := render(`<body><p>a</p><p>b</p><p>c</p><p>d</p></body>`)
	mr := sect.New(p, 0, 4)
	mr.Records = []visual.Block{{Page: p, Start: 0, End: 2}, {Page: p, Start: 2, End: 4}}
	if !hasRecordInside(sect.New(p, 0, 2), []*sect.Section{mr}) {
		t.Fatalf("record inside range not detected")
	}
	if hasRecordInside(sect.New(p, 1, 3), []*sect.Section{mr}) {
		t.Fatalf("straddling record wrongly counted as inside")
	}
}

func TestRefineOutputOrdering(t *testing.T) {
	p := hiddenBoundaryPage()
	ds1 := sect.New(p, 1, 7)
	ds1.LBM = 0
	ds2 := sect.New(p, 8, 12)
	ds2.LBM = 7
	csbm := make([]bool, len(p.Lines))
	csbm[0], csbm[7] = true, true
	out := Refine(p, nil, []*sect.Section{ds2, ds1}, csbm, &testParams, mining.DefaultOptions(), DefaultOptions(), nil)
	prev := -1
	for _, s := range out {
		if s.Start < prev {
			t.Fatalf("sections out of order")
		}
		prev = s.Start
	}
}
