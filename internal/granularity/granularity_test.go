package granularity

import (
	"strings"
	"testing"

	"mse/internal/htmlparse"
	"mse/internal/layout"
	"mse/internal/mining"
	"mse/internal/sect"
	"mse/internal/visual"
)

// testParams are the paper's shared similarity parameters.
var testParams = visual.DefaultParams()

func render(src string) *layout.Page {
	return layout.Render(htmlparse.Parse(src))
}

func TestResolveMergedRecordsSplit(t *testing.T) {
	// A section whose "records" each contain two true records (merged).
	p := render(`<body><table>
	<tr><td><a href="/1">Title One</a><br>snippet one words</td></tr>
	<tr><td><a href="/2">Title Two</a><br>snippet two words</td></tr>
	<tr><td><a href="/3">Title Three</a><br>snippet three words</td></tr>
	<tr><td><a href="/4">Title Four</a><br>snippet four words</td></tr>
	<tr><td><a href="/5">Title Five</a><br>snippet five words</td></tr>
	<tr><td><a href="/6">Title Six</a><br>snippet six words</td></tr>
	</table></body>`)
	s := sect.New(p, 0, 12)
	// Wrong partition: 3 oversized records of 4 lines (2 true records
	// each).
	for i := 0; i < 12; i += 4 {
		s.Records = append(s.Records, visual.Block{Page: p, Start: i, End: i + 4})
	}
	out := Resolve(p, []*sect.Section{s}, &testParams, mining.DefaultOptions(), DefaultOptions(), nil)
	if len(out) != 1 {
		t.Fatalf("sections = %d, want 1", len(out))
	}
	if got := len(out[0].Records); got != 6 {
		for _, r := range out[0].Records {
			t.Logf("rec: %q", r.Text())
		}
		t.Fatalf("records = %d, want 6", got)
	}
}

func TestResolveSplitRecordsMerged(t *testing.T) {
	// A section whose records were split in half (title and snippet
	// separated): cohesion must prefer the merged partition.
	p := render(`<body><table>
	<tr><td><a href="/1">Title One</a></td></tr>
	<tr><td>snippet one words here</td></tr>
	<tr><td><a href="/2">Title Two</a></td></tr>
	<tr><td>snippet two words here</td></tr>
	<tr><td><a href="/3">Title Three</a></td></tr>
	<tr><td>snippet three words here</td></tr>
	</table></body>`)
	s := sect.New(p, 0, 6)
	for i := 0; i < 6; i++ {
		s.Records = append(s.Records, visual.Block{Page: p, Start: i, End: i + 1})
	}
	out := Resolve(p, []*sect.Section{s}, &testParams, mining.DefaultOptions(), DefaultOptions(), nil)
	if len(out) != 1 {
		t.Fatalf("sections = %d, want 1", len(out))
	}
	if got := len(out[0].Records); got != 3 {
		for _, r := range out[0].Records {
			t.Logf("rec: %q", r.Text())
		}
		t.Fatalf("records = %d, want 3", got)
	}
	for _, r := range out[0].Records {
		if r.Len() != 2 {
			t.Fatalf("merged record should span 2 lines, got %d", r.Len())
		}
	}
}

func TestResolveKeepsCorrectPartition(t *testing.T) {
	p := render(`<body><table>
	<tr><td><a href="/1">Title One</a><br>snippet one words</td></tr>
	<tr><td><a href="/2">Title Two</a><br>snippet two words</td></tr>
	<tr><td><a href="/3">Title Three</a><br>snippet three words</td></tr>
	</table></body>`)
	s := sect.New(p, 0, 6)
	for i := 0; i < 6; i += 2 {
		s.Records = append(s.Records, visual.Block{Page: p, Start: i, End: i + 2})
	}
	out := Resolve(p, []*sect.Section{s}, &testParams, mining.DefaultOptions(), DefaultOptions(), nil)
	if len(out) != 1 || len(out[0].Records) != 3 {
		t.Fatalf("correct partition was changed: %d sections, %d records",
			len(out), len(out[0].Records))
	}
	for _, r := range out[0].Records {
		if r.Len() != 2 {
			t.Fatalf("record length changed to %d", r.Len())
		}
	}
}

func TestResolveSingleRecordSectionsUntouched(t *testing.T) {
	p := render(`<body>
	<h3>A</h3><div><a href="/a">Single A</a></div>
	<h3>B</h3><div><a href="/b">Single B</a></div>
	</body>`)
	// Two single-record sections separated by headings (not adjacent):
	// they must NOT be merged.
	s1 := sect.New(p, 1, 2)
	s1.Records = []visual.Block{{Page: p, Start: 1, End: 2}}
	s2 := sect.New(p, 3, 4)
	s2.Records = []visual.Block{{Page: p, Start: 3, End: 4}}
	out := Resolve(p, []*sect.Section{s1, s2}, &testParams, mining.DefaultOptions(), DefaultOptions(), nil)
	if len(out) != 2 {
		t.Fatalf("non-adjacent single-record sections merged: %d", len(out))
	}
}

func TestResolveMergesAdjacentSingleRecordSiblings(t *testing.T) {
	// Large records mistakenly extracted as sections: adjacent sibling
	// sections with one record each collapse into one section.
	p := render(`<body><div>
	<div><a href="/1">Big One</a><br>line a<br>line b</div>
	<div><a href="/2">Big Two</a><br>line c<br>line d</div>
	<div><a href="/3">Big Three</a><br>line e<br>line f</div>
	</div></body>`)
	var secs []*sect.Section
	for i := 0; i < 9; i += 3 {
		s := sect.New(p, i, i+3)
		s.Records = []visual.Block{{Page: p, Start: i, End: i + 3}}
		secs = append(secs, s)
	}
	out := Resolve(p, secs, &testParams, mining.DefaultOptions(), DefaultOptions(), nil)
	if len(out) != 1 {
		t.Fatalf("sections = %d, want 1 (merged)", len(out))
	}
	if len(out[0].Records) != 3 {
		t.Fatalf("merged section records = %d, want 3", len(out[0].Records))
	}
}

func TestResolveOversizedSectionsAsRecords(t *testing.T) {
	// Two consecutive sections whose outer containers share a format but
	// whose internal records differ were mistaken for two records of one
	// MR; the boundary sub-records are alien, so Resolve must split the
	// MR into sections.
	p := render(`<body><div>
	<div class="sec">
	  <div><a href="/a1">A one title</a><br>snippet a one words</div>
	  <div><a href="/a2">A two title</a><br>snippet a two words</div>
	  <div><a href="/a3">A three title</a><br>snippet a three words</div>
	</div>
	<div class="sec" style="margin-left: 60px">
	  <div><b><a href="/b1">B one item</a></b><br><i>different style one</i></div>
	  <div><b><a href="/b2">B two item</a></b><br><i>different style two</i></div>
	  <div><b><a href="/b3">B three item</a></b><br><i>different style three</i></div>
	</div>
	</div></body>`)
	// Lines 0..5: section A records; lines 6..11: section B records.
	s := sect.New(p, 0, 12)
	s.Records = []visual.Block{
		{Page: p, Start: 0, End: 6},
		{Page: p, Start: 6, End: 12},
	}
	out := Resolve(p, []*sect.Section{s}, &testParams, mining.DefaultOptions(), DefaultOptions(), nil)
	if len(out) < 2 {
		for _, o := range out {
			t.Logf("section %v:\n%s", o, o.Block().Text())
		}
		t.Fatalf("sections-as-records not split: %d sections", len(out))
	}
	for _, o := range out {
		txt := o.Block().Text()
		if strings.Contains(txt, "A one") && strings.Contains(txt, "B one") {
			t.Fatalf("split section still spans both true sections")
		}
	}
}

func TestResolveEmptyAndTiny(t *testing.T) {
	p := render(`<body><p>x</p></body>`)
	if out := Resolve(p, nil, &testParams, mining.DefaultOptions(), DefaultOptions(), nil); len(out) != 0 {
		t.Fatalf("empty input should stay empty")
	}
	s := sect.New(p, 0, 1)
	out := Resolve(p, []*sect.Section{s}, &testParams, mining.DefaultOptions(), DefaultOptions(), nil)
	if len(out) != 1 {
		t.Fatalf("tiny section mishandled")
	}
}
