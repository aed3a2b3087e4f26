package mining

import (
	"strings"
	"testing"

	"mse/internal/htmlparse"
	"mse/internal/layout"
	"mse/internal/visual"
)

// testParams are the paper's shared similarity parameters.
var testParams = visual.DefaultParams()

func render(src string) *layout.Page {
	return layout.Render(htmlparse.Parse(src))
}

func TestMineSingleRecord(t *testing.T) {
	// One record only: the whole DS must come back as a single record —
	// the paper's headline capability.
	p := render(`<body><div>
	<a href="/r">Only Result</a><br>
	a snippet describing the only result<br>
	www.site.example/only.html
	</div></body>`)
	recs := MineRecords(p, 0, len(p.Lines), &testParams, DefaultOptions())
	if len(recs) != 1 {
		for _, r := range recs {
			t.Logf("rec: %q", r.Text())
		}
		t.Fatalf("want 1 record, got %d", len(recs))
	}
	if recs[0].Len() != len(p.Lines) {
		t.Fatalf("single record should span the DS")
	}
}

func TestMineTwoRecords(t *testing.T) {
	p := render(`<body>
	<div><a href="/a">First Title</a><br>first snippet words</div>
	<div><a href="/b">Second Title</a><br>second snippet words</div>
	</body>`)
	recs := MineRecords(p, 0, len(p.Lines), &testParams, DefaultOptions())
	if len(recs) != 2 {
		for _, r := range recs {
			t.Logf("rec: %q", r.Text())
		}
		t.Fatalf("want 2 records, got %d", len(recs))
	}
	if !strings.Contains(recs[0].Text(), "First") || !strings.Contains(recs[1].Text(), "Second") {
		t.Fatalf("records mis-split: %q / %q", recs[0].Text(), recs[1].Text())
	}
}

func TestMineTableRecords(t *testing.T) {
	p := render(`<body><table>
	<tr><td><a href="/1">Alpha Title</a><br>alpha snippet here</td></tr>
	<tr><td><a href="/2">Beta Title</a><br>beta snippet here</td></tr>
	<tr><td><a href="/3">Gamma Title</a><br>gamma snippet here</td></tr>
	</table></body>`)
	recs := MineRecords(p, 0, len(p.Lines), &testParams, DefaultOptions())
	if len(recs) != 3 {
		for _, r := range recs {
			t.Logf("rec: %q", r.Text())
		}
		t.Fatalf("want 3 records, got %d", len(recs))
	}
}

func TestMineMultiRowRecords(t *testing.T) {
	// Each record spans two table rows: the "group of k roots" candidates
	// must win.
	p := render(`<body><table>
	<tr><td><a href="/1">Alpha Title</a></td></tr>
	<tr><td>alpha snippet text here</td></tr>
	<tr><td><a href="/2">Beta Title</a></td></tr>
	<tr><td>beta snippet text here</td></tr>
	<tr><td><a href="/3">Gamma Title</a></td></tr>
	<tr><td>gamma snippet text here</td></tr>
	</table></body>`)
	recs := MineRecords(p, 0, len(p.Lines), &testParams, DefaultOptions())
	if len(recs) != 3 {
		for _, r := range recs {
			t.Logf("rec: %q", r.Text())
		}
		t.Fatalf("want 3 records, got %d", len(recs))
	}
	for _, r := range recs {
		if r.Len() != 2 {
			t.Fatalf("each record should have 2 lines, got %d: %q", r.Len(), r.Text())
		}
	}
}

func TestMineEmptyRange(t *testing.T) {
	p := render(`<body><p>x</p></body>`)
	if got := MineRecords(p, 0, 0, &testParams, DefaultOptions()); got != nil {
		t.Fatalf("empty range should yield nil, got %v", got)
	}
}

func TestMineSingleLine(t *testing.T) {
	p := render(`<body><p><a href="/x">lone line</a></p></body>`)
	recs := MineRecords(p, 0, 1, &testParams, DefaultOptions())
	if len(recs) != 1 || recs[0].Len() != 1 {
		t.Fatalf("single line should be a single record")
	}
}

func TestCandidatePartitionsCoverage(t *testing.T) {
	p := render(`<body><table>
	<tr><td><a href="/1">A</a></td></tr>
	<tr><td>s1</td></tr>
	<tr><td><a href="/2">B</a></td></tr>
	<tr><td>s2</td></tr>
	</table></body>`)
	parts := CandidatePartitions(p, 0, len(p.Lines), DefaultOptions())
	if len(parts) < 2 {
		t.Fatalf("want several candidate partitions, got %d", len(parts))
	}
	for pi, part := range parts {
		// Every candidate must tile [0, len) exactly.
		at := 0
		for _, b := range part {
			if b.Start != at {
				t.Fatalf("partition %d has a gap at line %d", pi, at)
			}
			if b.End <= b.Start {
				t.Fatalf("partition %d has an empty block", pi)
			}
			at = b.End
		}
		if at != len(p.Lines) {
			t.Fatalf("partition %d ends at %d, want %d", pi, at, len(p.Lines))
		}
	}
}

func TestMineMixedRecordLengths(t *testing.T) {
	// Records with 1-3 snippet lines: mining should still split at titles.
	p := render(`<body>
	<div><a href="/a">Title One</a><br>snippet</div>
	<div><a href="/b">Title Two</a><br>snippet<br>extra line<br>third line</div>
	<div><a href="/c">Title Three</a><br>snippet<br>extra line</div>
	</body>`)
	recs := MineRecords(p, 0, len(p.Lines), &testParams, DefaultOptions())
	if len(recs) != 3 {
		for _, r := range recs {
			t.Logf("rec: %q", r.Text())
		}
		t.Fatalf("want 3 records, got %d", len(recs))
	}
}
