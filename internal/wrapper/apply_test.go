package wrapper

import (
	"fmt"
	"strings"
	"testing"

	"mse/internal/layout"
	"mse/internal/mining"
	"mse/internal/visual"
)

// partitionWith runs partitionBySepCompiled with sep's compiled form on a
// pooled scratch, as Apply does.
func partitionWith(p *layout.Page, start, end int, sep Separator) []visual.Block {
	cs := compileSep(sep)
	sc := acquireApplyScratch()
	defer applyScratchPool.Put(sc)
	return partitionBySepCompiled(p, start, end, &cs, sc)
}

func TestPartitionBySepExactSignatures(t *testing.T) {
	p := render(`<body><table>
	<tr><td><a href="/1">A</a><br>sa</td></tr>
	<tr><td><a href="/2">B</a><br>sb</td></tr>
	<tr><td><a href="/3">C</a><br>sc</td></tr>
	</table></body>`)
	roots := p.Forest(0, 2) // first record row
	if len(roots) != 1 {
		t.Fatalf("setup: record forest = %d roots", len(roots))
	}
	sep := Separator{StartSigs: []string{sigOf(t, p, 0, 2)}}
	blocks := partitionWith(p, 0, 6, sep)
	if len(blocks) != 3 {
		t.Fatalf("blocks = %d, want 3", len(blocks))
	}
	for i, b := range blocks {
		if b.Len() != 2 {
			t.Fatalf("block %d has %d lines", i, b.Len())
		}
	}
}

// sigOf extracts the root signature of the record covering [start, end).
func sigOf(t *testing.T, p *layout.Page, start, end int) string {
	t.Helper()
	roots := p.Forest(start, end)
	if len(roots) == 0 {
		t.Fatalf("no forest for [%d,%d)", start, end)
	}
	return mining.RootSignature(roots[0])
}

func TestPartitionBySepTagFallback(t *testing.T) {
	// Stored signature describes a 2-line li; the page has an unseen
	// 1-line li variant, recognized at the tag level.
	train := render(`<body><ul>
	<li><a href="/1">A</a><br>sa</li>
	<li><a href="/2">B</a><br>sb</li>
	</ul></body>`)
	sep := Separator{StartSigs: []string{sigOf(t, train, 0, 2)}}

	apply := render(`<body><ul>
	<li><a href="/1">A</a><br>sa</li>
	<li><a href="/2">B only title</a></li>
	<li><a href="/3">C</a><br>sc</li>
	</ul></body>`)
	blocks := partitionWith(apply, 0, 5, sep)
	if len(blocks) != 3 {
		for _, b := range blocks {
			t.Logf("block [%d,%d)", b.Start, b.End)
		}
		t.Fatalf("blocks = %d, want 3 (unseen variant via tag fallback)", len(blocks))
	}
}

func TestPartitionBySepNoMatchReturnsNil(t *testing.T) {
	p := render(`<body><div>just a line</div><div>another line</div></body>`)
	sep := Separator{StartSigs: []string{"tr(td[a,])"}}
	if blocks := partitionWith(p, 0, 2, sep); blocks != nil {
		t.Fatalf("mismatched separator should yield nil, got %d blocks", len(blocks))
	}
}

func TestPartitionBySepDeepens(t *testing.T) {
	// The range spans two section containers, each holding two
	// sub-containers whose children carry the signatures.  ExpandedForest
	// stops at the two outer containers, so only the descend in
	// partitionBySepCompiled reaches the records, two levels down; stopped
	// short, the containers pass the tag-level fallback and come out as
	// records themselves.
	train := render(`<body><div class="r"><a href="/1">A</a><br>sa</div><p>footer</p></body>`)
	sep := Separator{StartSigs: []string{sigOf(t, train, 0, 2)}}

	var sb strings.Builder
	sb.WriteString(`<body><div>`)
	rec := 0
	for outer := 0; outer < 2; outer++ {
		sb.WriteString(`<div class="section">`)
		for inner := 0; inner < 2; inner++ {
			sb.WriteString(`<div class="group">`)
			for i := 0; i < 2; i++ {
				fmt.Fprintf(&sb, `<div class="r"><a href="/%d">T%d</a><br>s%d</div>`, rec, rec, rec)
				rec++
			}
			sb.WriteString(`</div>`)
		}
		sb.WriteString(`</div>`)
	}
	sb.WriteString(`</div></body>`)
	apply := render(sb.String())
	if roots := mining.ExpandedForest(apply, 0, 2*rec); len(roots) != 2 {
		t.Fatalf("setup: expanded forest = %d roots, want the 2 section containers", len(roots))
	}
	blocks := partitionWith(apply, 0, 2*rec, sep)
	if len(blocks) != rec {
		for _, b := range blocks {
			t.Logf("block [%d,%d)", b.Start, b.End)
		}
		t.Fatalf("blocks = %d, want %d (two levels below the containers)", len(blocks), rec)
	}
	for i, b := range blocks {
		if b.Len() != 2 {
			t.Fatalf("block %d has %d lines", i, b.Len())
		}
	}
}

func TestBlocksFromStartsClamping(t *testing.T) {
	p := render(`<body><p>a</p><p>b</p><p>c</p><p>d</p></body>`)
	blocks := blocksFromStarts(p, 0, 4, []int{1, 3})
	if len(blocks) != 2 {
		t.Fatalf("blocks = %d", len(blocks))
	}
	if blocks[0].Start != 0 || blocks[0].End != 3 || blocks[1].End != 4 {
		t.Fatalf("clamping wrong: %v", blocks)
	}
	if got := blocksFromStarts(p, 0, 4, nil); got != nil {
		t.Fatalf("empty starts should yield nil")
	}
}

func TestSigTagAndCompiledTags(t *testing.T) {
	if got := sigTag("tr(td[a,])"); got != "tr" {
		t.Fatalf("sigTag = %q", got)
	}
	if got := sigTag("plain"); got != "plain" {
		t.Fatalf("sigTag without children = %q", got)
	}
	cs := compileSep(Separator{
		StartSigs:    []string{"li(a[#text,])", "tr(td[])"},
		InteriorSigs: []string{"div(p[,])"},
	})
	if !containsString(cs.startTags, "tr") || !containsString(cs.startTags, "li") {
		t.Fatalf("start tags = %v", cs.startTags)
	}
	if containsString(cs.startTags, "div") || !containsString(cs.interiorTags, "div") {
		t.Fatalf("start tags %v, interior tags %v", cs.startTags, cs.interiorTags)
	}
}

func TestMarkerSetMatch(t *testing.T) {
	long := strings.Repeat("x", 63)
	longer := strings.Repeat("x", 64)
	m := newMarkerSet([]string{"", "Results", long})
	for _, c := range []struct {
		s    string
		want bool
	}{
		// An empty cleaned line carries no marker evidence, even against
		// an empty stored marker.
		{"", false},
		{"Results", true},
		{"Resultz", false},
		{"News", false},
		{long, true},
		// 64 shares the overflow bucket with 63 but is not a marker.
		{longer, false},
		{strings.Repeat("y", 63), false},
	} {
		if got := m.match(c.s); got != c.want {
			t.Errorf("match(%q) = %v, want %v", c.s, got, c.want)
		}
	}
	// Markers of different lengths >= 63 share bit 63; each still matches.
	m = newMarkerSet([]string{longer, strings.Repeat("z", 70)})
	if !m.match(longer) || !m.match(strings.Repeat("z", 70)) {
		t.Fatalf("markers in the overflow bucket do not match")
	}
	if m.match(long) || m.match(strings.Repeat("z", 71)) {
		t.Fatalf("overflow bucket matched a non-marker")
	}
}
