package visual

import (
	"math"
	"testing"
	"testing/quick"

	"mse/internal/htmlparse"
	"mse/internal/layout"
)

func render(src string) *layout.Page {
	return layout.Render(htmlparse.Parse(src))
}

// recordPage renders a three-record section where each record is
// "n." / link / snippet spread over two lines (number cell + link cell,
// then snippet).
func recordPage() *layout.Page {
	return render(`<body><table>
	<tr><td><a href="/r1">Title One</a></td></tr>
	<tr><td>snippet one text</td></tr>
	<tr><td><a href="/r2">Title Two</a></td></tr>
	<tr><td>snippet two text</td></tr>
	<tr><td><a href="/r3">Title Three</a></td></tr>
	<tr><td>snippet three text</td></tr>
	</table></body>`)
}

func TestTypeDistanceProperties(t *testing.T) {
	types := []layout.LineType{layout.TextLine, layout.LinkLine,
		layout.LinkTextLine, layout.ImageLine, layout.ImageTextLine,
		layout.FormLine, layout.RuleLine, layout.BlankLine}
	for _, a := range types {
		if TypeDistance(a, a) != 0 {
			t.Errorf("TypeDistance(%v,%v) != 0", a, a)
		}
		for _, b := range types {
			d1, d2 := TypeDistance(a, b), TypeDistance(b, a)
			if d1 != d2 {
				t.Errorf("asymmetric: %v,%v", a, b)
			}
			if d1 < 0 || d1 > 1 {
				t.Errorf("out of range: %v,%v = %g", a, b, d1)
			}
		}
	}
	if TypeDistance(layout.LinkLine, layout.LinkTextLine) >= TypeDistance(layout.LinkLine, layout.RuleLine) {
		t.Errorf("related types should be closer than unrelated")
	}
}

func TestPositionDistance(t *testing.T) {
	if PositionDistance(10, 10) != 0 {
		t.Fatalf("same position should be 0")
	}
	d1 := PositionDistance(0, 10)
	d2 := PositionDistance(0, 100)
	if !(0 < d1 && d1 < d2 && d2 <= 1) {
		t.Fatalf("monotonicity violated: %g %g", d1, d2)
	}
	// K=0.127 keeps distances within [0,1] for page-scale separations.
	if PositionDistance(0, 800) > 1 {
		t.Fatalf("page-width distance should cap at 1")
	}
}

func TestLineAttrDistanceFormula2(t *testing.T) {
	a1 := layout.TextAttr{Font: "times", Size: 16, Color: "#000000"}
	a2 := layout.TextAttr{Font: "times", Size: 16, Style: layout.Bold, Color: "#000000"}
	a3 := layout.TextAttr{Font: "arial", Size: 12, Color: "#ff0000"}

	if got := LineAttrDistance([]layout.TextAttr{a1}, []layout.TextAttr{a1}); got != 0 {
		t.Fatalf("identical sets: %g", got)
	}
	if got := LineAttrDistance([]layout.TextAttr{a1}, []layout.TextAttr{a3}); got != 1 {
		t.Fatalf("disjoint sets: %g", got)
	}
	// {a1,a2} vs {a1}: intersection 1, max 2 -> 0.5.
	if got := LineAttrDistance([]layout.TextAttr{a1, a2}, []layout.TextAttr{a1}); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("partial overlap: %g, want 0.5", got)
	}
	if got := LineAttrDistance(nil, nil); got != 0 {
		t.Fatalf("empty sets: %g", got)
	}
}

func TestLineDistanceWeights(t *testing.T) {
	p := render(`<body><p>plain</p><p><a href=u>link</a></p></body>`)
	a, b := &p.Lines[0], &p.Lines[1]
	onlyType := LineDistance(a, b, LineWeights{Type: 1})
	if onlyType != TypeDistance(a.Type, b.Type) {
		t.Fatalf("type-only weight mismatch")
	}
	full := LineDistance(a, b, DefaultLineWeights())
	if full <= 0 || full > 1 {
		t.Fatalf("distance out of range: %g", full)
	}
	if LineDistance(a, a, DefaultLineWeights()) != 0 {
		t.Fatalf("self distance nonzero")
	}
}

func TestBlockBasics(t *testing.T) {
	p := recordPage()
	if len(p.Lines) != 6 {
		t.Fatalf("expected 6 lines, got %d", len(p.Lines))
	}
	b := Block{Page: p, Start: 0, End: 2}
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	if b.Text() != "Title One\nsnippet one text" {
		t.Fatalf("Text = %q", b.Text())
	}
	if len(b.Shape()) != 2 || b.Shape()[0] != 0 {
		t.Fatalf("Shape = %v", b.Shape())
	}
	if b.MinX() != p.Lines[0].X {
		t.Fatalf("MinX = %d", b.MinX())
	}
	empty := Block{Page: p, Start: 3, End: 3}
	if empty.MinX() != 0 || empty.Len() != 0 {
		t.Fatalf("empty block misbehaves")
	}
}

func TestRecordDistanceSimilarVsDifferent(t *testing.T) {
	p := recordPage()
	r1 := Block{Page: p, Start: 0, End: 2}
	r2 := Block{Page: p, Start: 2, End: 4}
	r3 := Block{Page: p, Start: 4, End: 6}
	w := DefaultRecordWeights()
	d12 := RecordDistance(r1, r2, w)
	if d12 > 0.1 {
		t.Fatalf("similar records too far: %g", d12)
	}
	if got := RecordDistance(r1, r1, w); got != 0 {
		t.Fatalf("self distance = %g", got)
	}
	// A record vs a header-like single line should be far.
	p2 := render(`<body><h2>Header</h2><table>
	<tr><td><a href="/r1">Title One</a></td></tr>
	<tr><td>snippet one</td></tr></table></body>`)
	hdr := Block{Page: p2, Start: 0, End: 1}
	rec := Block{Page: p2, Start: 1, End: 3}
	dh := RecordDistance(hdr, rec, w)
	if dh <= d12 {
		t.Fatalf("header-record distance %g should exceed record-record %g", dh, d12)
	}
	_ = r3
}

func TestRecordDistanceSymmetry(t *testing.T) {
	p := recordPage()
	w := DefaultRecordWeights()
	blocks := []Block{
		{Page: p, Start: 0, End: 2},
		{Page: p, Start: 2, End: 4},
		{Page: p, Start: 4, End: 6},
		{Page: p, Start: 1, End: 5},
	}
	for _, a := range blocks {
		for _, b := range blocks {
			d1 := RecordDistance(a, b, w)
			d2 := RecordDistance(b, a, w)
			if math.Abs(d1-d2) > 1e-12 {
				t.Fatalf("asymmetric record distance: %g vs %g", d1, d2)
			}
			if d1 < 0 || d1 > 1+1e-9 {
				t.Fatalf("record distance out of range: %g", d1)
			}
		}
	}
}

func TestInterRecordDistance(t *testing.T) {
	p := recordPage()
	w := DefaultRecordWeights()
	recs := []Block{
		{Page: p, Start: 0, End: 2},
		{Page: p, Start: 2, End: 4},
		{Page: p, Start: 4, End: 6},
	}
	d := InterRecordDistance(recs, w)
	if d < 0 || d > 0.1 {
		t.Fatalf("Dinr of uniform section = %g", d)
	}
	if got := InterRecordDistance(recs[:1], w); got != 0 {
		t.Fatalf("single-record Dinr = %g", got)
	}
	if got := InterRecordDistance(nil, w); got != 0 {
		t.Fatalf("empty Dinr = %g", got)
	}
}

// TestThreshold checks W × max(Dinr, MinDinr): a single record has Dinr
// 0, so the floor decides; a spread-out partition scales its own Dinr.
func TestThreshold(t *testing.T) {
	p := recordPage()
	vp := DefaultParams()
	one := []Block{{Page: p, Start: 0, End: 2}}
	if got, want := vp.Threshold(one), vp.W*vp.MinDinr; got != want {
		t.Fatalf("floored threshold = %g, want %g", got, want)
	}
	lines := []Block{{Page: p, Start: 0, End: 1}, {Page: p, Start: 1, End: 2}, {Page: p, Start: 2, End: 3}}
	dinr := InterRecordDistance(lines, vp.RecordWeights)
	if dinr <= vp.MinDinr {
		t.Fatalf("Dinr of mixed lines = %g, want above the floor %g", dinr, vp.MinDinr)
	}
	if got, want := vp.Threshold(lines), vp.W*dinr; got != want {
		t.Fatalf("threshold = %g, want %g", got, want)
	}
}

func TestAvgRecordDistance(t *testing.T) {
	p := recordPage()
	w := DefaultRecordWeights()
	recs := []Block{
		{Page: p, Start: 0, End: 2},
		{Page: p, Start: 2, End: 4},
	}
	r3 := Block{Page: p, Start: 4, End: 6}
	d := AvgRecordDistance(r3, recs, w)
	if d < 0 || d > 0.1 {
		t.Fatalf("Davgrs of matching record = %g", d)
	}
	if got := AvgRecordDistance(r3, nil, w); got != 0 {
		t.Fatalf("Davgrs against empty = %g", got)
	}
}

func TestRecordDiversity(t *testing.T) {
	p := recordPage()
	lw := DefaultLineWeights()
	// Link line + text line differ -> diversity > 0.
	r := Block{Page: p, Start: 0, End: 2}
	if got := RecordDiversity(r, lw); got <= 0 {
		t.Fatalf("two-line record diversity = %g", got)
	}
	single := Block{Page: p, Start: 0, End: 1}
	if got := RecordDiversity(single, lw); got != 0 {
		t.Fatalf("single-line diversity = %g", got)
	}
}

func TestSectionCohesionPrefersCorrectPartition(t *testing.T) {
	p := recordPage()
	lw, rw := DefaultLineWeights(), DefaultRecordWeights()

	correct := []Block{
		{Page: p, Start: 0, End: 2},
		{Page: p, Start: 2, End: 4},
		{Page: p, Start: 4, End: 6},
	}
	perLine := []Block{
		{Page: p, Start: 0, End: 1}, {Page: p, Start: 1, End: 2},
		{Page: p, Start: 2, End: 3}, {Page: p, Start: 3, End: 4},
		{Page: p, Start: 4, End: 5}, {Page: p, Start: 5, End: 6},
	}
	oversized := []Block{
		{Page: p, Start: 0, End: 4},
		{Page: p, Start: 4, End: 6},
	}
	whole := []Block{{Page: p, Start: 0, End: 6}}

	cCorrect := SectionCohesion(correct, lw, rw)
	cPerLine := SectionCohesion(perLine, lw, rw)
	cOversized := SectionCohesion(oversized, lw, rw)
	cWhole := SectionCohesion(whole, lw, rw)

	if cCorrect <= cPerLine {
		t.Fatalf("correct %g should beat per-line %g", cCorrect, cPerLine)
	}
	if cCorrect <= cOversized {
		t.Fatalf("correct %g should beat oversized %g", cCorrect, cOversized)
	}
	if cCorrect <= cWhole {
		t.Fatalf("correct %g should beat whole-as-one %g", cCorrect, cWhole)
	}
	if got := SectionCohesion(nil, lw, rw); got != 0 {
		t.Fatalf("empty cohesion = %g", got)
	}
}

func TestSectionCohesionSingleRecordDS(t *testing.T) {
	// A DS with one genuine record: taking the whole DS as a single record
	// should score at least as high as splitting it per line.
	p := render(`<body><div>
	<a href="/only">Only Result Title</a><br>
	a snippet line describing it<br>
	http://example.com/only
	</div></body>`)
	lw, rw := DefaultLineWeights(), DefaultRecordWeights()
	whole := []Block{{Page: p, Start: 0, End: len(p.Lines)}}
	var perLine []Block
	for i := range p.Lines {
		perLine = append(perLine, Block{Page: p, Start: i, End: i + 1})
	}
	if SectionCohesion(whole, lw, rw) <= SectionCohesion(perLine, lw, rw) {
		t.Fatalf("single-record DS should prefer the whole-record partition")
	}
}

func TestVisualRecordDistanceIgnoresForest(t *testing.T) {
	// Two blocks with identical appearance but different underlying tags.
	p := render(`<body>
	<div><a href="/a">Alpha</a></div>
	<p><a href="/b">Betaa</a></p>
	</body>`)
	a := Block{Page: p, Start: 0, End: 1}
	b := Block{Page: p, Start: 1, End: 2}
	w := DefaultRecordWeights()
	vis := VisualRecordDistance(a, b, w)
	full := RecordDistance(a, b, w)
	if vis >= full {
		t.Fatalf("visual-only distance %g should be below full %g (forest differs)", vis, full)
	}
	if vis > 1e-9 {
		t.Fatalf("visually identical blocks should have ~0 visual distance, got %g", vis)
	}
}

func TestQuickBlockDistancesInRange(t *testing.T) {
	p := recordPage()
	n := len(p.Lines)
	f := func(s1, e1, s2, e2 uint8) bool {
		a := Block{Page: p, Start: int(s1) % n, End: int(s1)%n + 1 + int(e1)%(n-int(s1)%n)}
		b := Block{Page: p, Start: int(s2) % n, End: int(s2)%n + 1 + int(e2)%(n-int(s2)%n)}
		for _, d := range []float64{
			BlockTypeDistance(a, b), BlockShapeDistance(a, b),
			BlockPositionDistance(a, b), BlockAttrDistance(a, b),
			ForestDistance(a, b),
		} {
			if d < -1e-9 || d > 1+1e-9 || math.IsNaN(d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
