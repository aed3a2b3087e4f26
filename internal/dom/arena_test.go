package dom

import (
	"reflect"
	"testing"
)

// TestArenaReleaseZeroesNodes pins Release's contract: every node and
// attribute handed out since the arena was acquired reads as zero
// afterwards, the fingerprint cache included, so a pooled arena never
// carries one page's attributes, links, marks or spans into the next
// page's tree.  Node's fields are walked by reflection, so a field added
// to Node but forgotten in resetNodes fails here as well.
func TestArenaReleaseZeroesNodes(t *testing.T) {
	a := NewArena()
	nodes := make([]*Node, nodeSlabSize+3) // spill into a second slab
	for i := range nodes {
		n := a.Node()
		n.Type, n.Tag, n.Data = ElementNode, "td", "x"
		n.Attrs = a.Attrs(2)
		n.Attrs[0] = Attr{Key: "k", Val: "v"}
		n.Fingerprint()
		n.Parent, n.FirstChild, n.LastChild, n.PrevSibling, n.NextSibling = n, n, n, n, n
		n.Mark, n.SpanStart, n.SpanEnd = MarkCandidate, 1, 2
		nodes[i] = n
	}
	attrs := nodes[0].Attrs
	a.Release()
	for i, n := range nodes {
		v := reflect.ValueOf(n).Elem()
		for f := 0; f < v.NumField(); f++ {
			if !v.Field(f).IsZero() {
				t.Fatalf("node %d: field %s survives Release", i, v.Type().Field(f).Name)
			}
		}
	}
	if attrs[0] != (Attr{}) {
		t.Fatalf("attribute %+v survives Release", attrs[0])
	}
}
