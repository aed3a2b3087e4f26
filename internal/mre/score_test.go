package mre

import (
	"strings"
	"testing"

	"mse/internal/htmlparse"
	"mse/internal/layout"
	"mse/internal/sect"
	"mse/internal/visual"
)

func pageOf(src string) *layout.Page {
	return layout.Render(htmlparse.Parse(src))
}

func TestUniformStarts(t *testing.T) {
	p := pageOf(`<body><table>
	<tr><td><a href="/1">T1</a></td></tr>
	<tr><td>s1</td></tr>
	<tr><td><a href="/2">T2</a></td></tr>
	<tr><td>s2</td></tr>
	</table></body>`)
	aligned := sect.New(p, 0, 4)
	aligned.Records = []visual.Block{
		{Page: p, Start: 0, End: 2}, {Page: p, Start: 2, End: 4},
	}
	if !uniformStarts(aligned) {
		t.Fatalf("title-aligned records should have uniform starts")
	}
	shifted := sect.New(p, 0, 4)
	shifted.Records = []visual.Block{
		{Page: p, Start: 0, End: 1}, {Page: p, Start: 1, End: 4},
	}
	if uniformStarts(shifted) {
		t.Fatalf("mixed-start partition should not be uniform")
	}
	merged := sect.New(p, 0, 4)
	merged.Records = []visual.Block{{Page: p, Start: 0, End: 4}}
	if uniformStarts(merged) {
		t.Fatalf("single record over repeated signatures is not uniform-aligned")
	}
	empty := sect.New(p, 0, 4)
	if uniformStarts(empty) {
		t.Fatalf("no records cannot be uniform")
	}
}

func TestScorePrefersAlignedPartition(t *testing.T) {
	p := pageOf(`<body><table>
	<tr><td><a href="/1">Title One</a></td></tr>
	<tr><td>snippet one words</td></tr>
	<tr><td><a href="/2">Title Two</a></td></tr>
	<tr><td>snippet two words</td></tr>
	<tr><td><a href="/3">Title Three</a></td></tr>
	<tr><td>snippet three words</td></tr>
	</table></body>`)
	opt := config{Options: DefaultOptions(), Params: &testParams}
	mk := func(starts ...int) *sect.Section {
		s := sect.New(p, 0, 6)
		for i, st := range starts {
			end := 6
			if i+1 < len(starts) {
				end = starts[i+1]
			}
			s.Records = append(s.Records, visual.Block{Page: p, Start: st, End: end})
		}
		return s
	}
	aligned := mk(0, 2, 4)
	perLine := mk(0, 1, 2, 3, 4, 5)
	shifted := mk(0, 1, 3, 5)
	if score(aligned, opt) <= score(perLine, opt) {
		t.Fatalf("aligned partition should beat per-line split")
	}
	if score(aligned, opt) <= score(shifted, opt) {
		t.Fatalf("aligned partition should beat phase-shifted split")
	}
}

func TestContainsRule(t *testing.T) {
	p := pageOf(`<body><p>a</p><hr><p>b</p></body>`)
	with := visual.Block{Page: p, Start: 0, End: 3}
	without := visual.Block{Page: p, Start: 0, End: 1}
	if !containsRule(with) {
		t.Fatalf("rule not detected")
	}
	if containsRule(without) {
		t.Fatalf("phantom rule")
	}
}

func TestGroupByAreaMergesOverlaps(t *testing.T) {
	p := pageOf(`<body>` + strings.Repeat("<p>x</p>", 20) + `</body>`)
	a := sect.New(p, 0, 10)
	b := sect.New(p, 2, 12) // overlaps a heavily
	c := sect.New(p, 15, 20)
	groups := groupByArea([]*sect.Section{a, b, c}, config{Options: DefaultOptions()})
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	sizes := map[int]bool{len(groups[0]): true, len(groups[1]): true}
	if !sizes[2] || !sizes[1] {
		t.Fatalf("group sizes wrong: %d and %d", len(groups[0]), len(groups[1]))
	}
}
