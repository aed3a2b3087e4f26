package dom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPathOfMatchesPaperExample(t *testing.T) {
	doc, m := buildTree()
	_ = doc
	// Path of the text "b": doc C html C head S body C table C tr S tr C td C
	p := PathOf(m["b"])
	want := "{#document}C{html}C{head}S{body}C{table}C{tr}S{tr}C{td}C"
	if p.String() != want {
		t.Fatalf("PathOf(b) = %s, want %s", p, want)
	}
}

func TestPathOfRootIsEmpty(t *testing.T) {
	doc, _ := buildTree()
	if p := PathOf(doc); len(p) != 0 {
		t.Fatalf("root path should be empty, got %s", p)
	}
}

func TestParseTagPathRoundTrip(t *testing.T) {
	doc, _ := buildTree()
	var nodes []*Node
	doc.Walk(func(n *Node) bool { nodes = append(nodes, n); return true })
	for _, n := range nodes {
		p := PathOf(n)
		parsed, err := ParseTagPath(p.String())
		if err != nil {
			t.Fatalf("ParseTagPath(%q): %v", p.String(), err)
		}
		if parsed.String() != p.String() {
			t.Fatalf("round trip %q -> %q", p.String(), parsed.String())
		}
	}
}

func TestParseTagPathErrors(t *testing.T) {
	for _, bad := range []string{"html}C", "{html", "{html}X", "{html}"} {
		if _, err := ParseTagPath(bad); err == nil {
			t.Errorf("ParseTagPath(%q) should fail", bad)
		}
	}
}

func TestLocateInverseOfPathOf(t *testing.T) {
	doc, _ := buildTree()
	doc.Walk(func(n *Node) bool {
		p := PathOf(n)
		if got := Locate(doc, p); got != n {
			t.Fatalf("Locate(PathOf(%s)) = %v, want the node itself", n.Label(), got)
		}
		return true
	})
}

func TestLocateMissing(t *testing.T) {
	doc, _ := buildTree()
	p, err := ParseTagPath("{#document}C{html}C{head}S{body}C{div}C")
	if err != nil {
		t.Fatal(err)
	}
	if got := Locate(doc, p); got != nil {
		t.Fatalf("Locate of nonexistent path = %v, want nil", got)
	}
}

func TestCompactPath(t *testing.T) {
	doc, m := buildTree()
	_ = doc
	// Path of text "b" has C tags doc, html, body(after 1 S), table, tr(after 1 S... wait)
	c := PathOf(m["b"]).Compact()
	// {#document}C{html}C{head}S{body}C{table}C{tr}S{tr}C{td}C
	// C steps: #document(+0) html(+0) body(+1) table(+0) tr... the C steps
	// are the ones with Dir=C: #document, html, body, table, tr(second), td.
	wantTags := []string{"#document", "html", "body", "table", "tr", "td"}
	gotTags := c.CTags()
	if len(gotTags) != len(wantTags) {
		t.Fatalf("compact C tags = %v, want %v", gotTags, wantTags)
	}
	for i := range wantTags {
		if gotTags[i] != wantTags[i] {
			t.Fatalf("compact C tags = %v, want %v", gotTags, wantTags)
		}
	}
	if c.TotalS() != 2 {
		t.Fatalf("TotalS = %d, want 2", c.TotalS())
	}
}

func TestCompatibility(t *testing.T) {
	_, m := buildTree()
	ca := PathOf(m["a"]).Compact()
	cb := PathOf(m["b"]).Compact()
	if !ca.Compatible(cb) {
		t.Fatalf("paths of td text in sibling rows should be compatible")
	}
	cx := PathOf(m["x"]).Compact()
	if ca.Compatible(cx) {
		t.Fatalf("td text and p text paths should be incompatible")
	}
}

func TestPathDistanceFormula1(t *testing.T) {
	_, m := buildTree()
	ca := PathOf(m["a"]).Compact()
	cb := PathOf(m["b"]).Compact()
	// a: ...{table}C{tr}C{td}C -> S counts per C step differ only at the tr
	// step (0 vs 1); max total S = max(1, 2) = 2, so distance = 1/2.
	if got := PathDistance(ca, cb); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("PathDistance = %g, want 0.5", got)
	}
	if got := PathDistance(ca, ca); got != 0 {
		t.Fatalf("self distance = %g, want 0", got)
	}
}

func TestPathDistanceIncompatibleWorseThanCompatible(t *testing.T) {
	_, m := buildTree()
	ca := PathOf(m["a"]).Compact()
	cb := PathOf(m["b"]).Compact()
	cx := PathOf(m["x"]).Compact()
	compat := PathDistance(ca, cb)
	incompat := PathDistance(ca, cx)
	if incompat <= compat {
		t.Fatalf("incompatible distance %g should exceed compatible %g", incompat, compat)
	}
	if incompat < 1 {
		t.Fatalf("incompatible distance %g should be >= 1", incompat)
	}
}

func TestPathDistanceSymmetric(t *testing.T) {
	_, m := buildTree()
	nodes := []*Node{m["a"], m["b"], m["x"], m["t"]}
	for _, p := range nodes {
		for _, q := range nodes {
			d1 := PathDistance(PathOf(p).Compact(), PathOf(q).Compact())
			d2 := PathDistance(PathOf(q).Compact(), PathOf(p).Compact())
			if math.Abs(d1-d2) > 1e-12 {
				t.Fatalf("distance not symmetric: %g vs %g", d1, d2)
			}
		}
	}
}

func TestLocateCompactTolerant(t *testing.T) {
	doc, m := buildTree()
	// Add a third row; the compact path of its td text is compatible with
	// the others but with a different sibling count.
	tr3 := &Node{Type: ElementNode, Tag: "tr"}
	td3 := &Node{Type: ElementNode, Tag: "td"}
	txt := &Node{Type: TextNode, Data: "c"}
	td3.AppendChild(txt)
	tr3.AppendChild(td3)
	m["table"].AppendChild(tr3)

	target := PathOf(m["b"]).Compact()
	got := LocateCompactAll(doc, target)[0]
	if got != m["b"] {
		t.Fatalf("LocateCompactAll should rank the exact node first when present")
	}

	// Remove row 2; the best compatible match for b's path is now a or c's
	// text node (nearest sibling count wins: tr index 1 gone, tr index 2's
	// text has |2-1|=1, tr index 0's has |0-1|=1; ties keep the first).
	m["table"].RemoveChild(m["tr2"])
	cands := LocateCompactAll(doc, target)
	if len(cands) == 0 {
		t.Fatalf("LocateCompactAll should fall back to a compatible node")
	}
	if got = cands[0]; got != m["a"] && got != txt {
		t.Fatalf("LocateCompactAll fallback ranked %v first", got)
	}
}

// Property: compacting any generated path preserves the total sibling count
// and compatibility is reflexive.
func TestQuickCompactProperties(t *testing.T) {
	f := func(dirs []bool) bool {
		var p TagPath
		s := 0
		for _, isChild := range dirs {
			d := Sibling
			if isChild {
				d = Child
			} else {
				s++
			}
			p = append(p, PathNode{Tag: "t", Dir: d})
		}
		c := p.Compact()
		if c.TotalS() != s {
			return false
		}
		if !c.Compatible(c) {
			return false
		}
		return PathDistance(c, c) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
