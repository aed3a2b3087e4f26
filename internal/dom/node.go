// Package dom provides the document object model used throughout the MSE
// system: a rooted, ordered, labeled tree representation of HTML pages,
// together with the tag-path machinery (tag paths, compact tag paths, path
// compatibility and the path distance of Formula 1 in the paper).
//
// The MSE paper (Zhao, Meng, Yu; VLDB 2006) locates every piece of page
// content by a tag path — a sequence of (tag, direction) steps from the
// root, where the direction records whether the walk descends to a first
// child ("C") or moves to a next sibling ("S").  The compact tag path keeps
// only the C steps plus the number of S steps between consecutive C steps,
// which makes paths from different result pages of the same engine
// comparable even when the number of repeated siblings differs.
package dom

import (
	"strings"
	"sync/atomic"
)

// NodeType discriminates the kinds of nodes in a DOM tree.
type NodeType int

const (
	// DocumentNode is the synthetic root of a parsed page.
	DocumentNode NodeType = iota
	// ElementNode is an HTML element such as <table> or <a>.
	ElementNode
	// TextNode is a run of character data.
	TextNode
	// CommentNode is an HTML comment; it never contributes content lines.
	CommentNode
	// DoctypeNode is a <!DOCTYPE ...> declaration.
	DoctypeNode
)

// String returns a short human-readable name for the node type.
func (t NodeType) String() string {
	switch t {
	case DocumentNode:
		return "#document"
	case ElementNode:
		return "element"
	case TextNode:
		return "#text"
	case CommentNode:
		return "#comment"
	case DoctypeNode:
		return "#doctype"
	}
	return "#unknown"
}

// Attr is a single name/value attribute on an element.
type Attr struct {
	Key string
	Val string
}

// Node is a node in the DOM tree of a result page.  The zero value is an
// empty document node with no children.
type Node struct {
	Type NodeType
	// Tag is the lower-cased tag name for element nodes ("table", "a", …).
	Tag string
	// Data holds the text of TextNode and CommentNode nodes.
	Data  string
	Attrs []Attr

	Parent      *Node
	FirstChild  *Node
	LastChild   *Node
	PrevSibling *Node
	NextSibling *Node

	// SpanStart/SpanEnd are the node-resident line-span index maintained by
	// internal/layout during rendering: the half-open content-line range
	// [SpanStart, SpanEnd) this subtree renders into, with SpanEnd == 0
	// meaning "renders nothing".  Storing the span on the node instead of a
	// map[*Node][2]int keeps Page.Span and the per-leaf span merge on the
	// extraction hot path allocation- and hash-free.  The fields are only
	// meaningful for the tree's most recent render: arenas clear them on
	// Release, and heap-backed trees are parsed fresh per call.
	SpanStart, SpanEnd int32

	// fp caches the structural fingerprint of the subtree rooted here; see
	// fingerprint.go.  Atomic so concurrent lazy computation is race-free.
	fp atomic.Pointer[Fingerprint]
}

// Label returns the label used when comparing nodes structurally: the tag
// name for elements and the node-type name otherwise.  Text content is
// deliberately excluded so that structural comparison (tree edit distance)
// measures layout similarity, not content similarity.
func (n *Node) Label() string {
	if n.Type == ElementNode {
		return n.Tag
	}
	return n.Type.String()
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(key string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// AppendChild adds c as the last child of n.  c must not already have a
// parent or siblings.
func (n *Node) AppendChild(c *Node) {
	if c.Parent != nil || c.PrevSibling != nil || c.NextSibling != nil {
		panic("dom: AppendChild called with attached child")
	}
	c.Parent = n
	n.invalidateFingerprints()
	if n.LastChild == nil {
		n.FirstChild = c
		n.LastChild = c
		return
	}
	c.PrevSibling = n.LastChild
	n.LastChild.NextSibling = c
	n.LastChild = c
}

// RemoveChild detaches c from n.  It panics if c is not a child of n.
func (n *Node) RemoveChild(c *Node) {
	if c.Parent != n {
		panic("dom: RemoveChild called with non-child")
	}
	if c.PrevSibling != nil {
		c.PrevSibling.NextSibling = c.NextSibling
	} else {
		n.FirstChild = c.NextSibling
	}
	if c.NextSibling != nil {
		c.NextSibling.PrevSibling = c.PrevSibling
	} else {
		n.LastChild = c.PrevSibling
	}
	c.Parent = nil
	c.PrevSibling = nil
	c.NextSibling = nil
	n.invalidateFingerprints()
}

// Children returns the direct children of n as a slice, in document order.
func (n *Node) Children() []*Node {
	var out []*Node
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		out = append(out, c)
	}
	return out
}

// ChildCount reports the number of direct children of n.
func (n *Node) ChildCount() int {
	count := 0
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		count++
	}
	return count
}

// Walk visits n and all of its descendants in preorder (document order),
// calling fn for each node.  If fn returns false the subtree below the
// current node is skipped (the walk continues with the next sibling).
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		c.Walk(fn)
	}
}

// Size returns the number of nodes in the subtree rooted at n, including n.
func (n *Node) Size() int {
	count := 0
	n.Walk(func(*Node) bool {
		count++
		return true
	})
	return count
}

// TextContent concatenates the text of all descendant text nodes of n,
// separated by single spaces, with surrounding whitespace trimmed.
func (n *Node) TextContent() string {
	var sb strings.Builder
	n.Walk(func(c *Node) bool {
		if c.Type == TextNode {
			t := strings.TrimSpace(c.Data)
			if t != "" {
				if sb.Len() > 0 {
					sb.WriteByte(' ')
				}
				sb.WriteString(t)
			}
		}
		return true
	})
	return sb.String()
}

// Clone returns a deep copy of the subtree rooted at n.  The copy is
// detached: its Parent and sibling pointers are nil.
func (n *Node) Clone() *Node {
	cp := &Node{Type: n.Type, Tag: n.Tag, Data: n.Data}
	if len(n.Attrs) > 0 {
		cp.Attrs = make([]Attr, len(n.Attrs))
		copy(cp.Attrs, n.Attrs)
	}
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		cp.AppendChild(c.Clone())
	}
	return cp
}

// Root returns the topmost ancestor of n (n itself if it has no parent).
func (n *Node) Root() *Node {
	for n.Parent != nil {
		n = n.Parent
	}
	return n
}

// Depth returns the number of ancestors of n (0 for the root).
func (n *Node) Depth() int {
	d := 0
	for p := n.Parent; p != nil; p = p.Parent {
		d++
	}
	return d
}

// IsAncestorOf reports whether n is a proper ancestor of other.
func (n *Node) IsAncestorOf(other *Node) bool {
	for p := other.Parent; p != nil; p = p.Parent {
		if p == n {
			return true
		}
	}
	return false
}

// FindAll returns every descendant element of n (in document order) whose
// tag equals tag.
func (n *Node) FindAll(tag string) []*Node {
	var out []*Node
	n.Walk(func(c *Node) bool {
		if c.Type == ElementNode && c.Tag == tag {
			out = append(out, c)
		}
		return true
	})
	return out
}

// CommonAncestor returns the deepest node that is an ancestor of (or equal
// to) both a and b.  It returns nil when a and b are in different trees.
func CommonAncestor(a, b *Node) *Node {
	seen := make(map[*Node]bool)
	for n := a; n != nil; n = n.Parent {
		seen[n] = true
	}
	for n := b; n != nil; n = n.Parent {
		if seen[n] {
			return n
		}
	}
	return nil
}

// MinimalSubtree returns the deepest single node whose subtree contains all
// of the given nodes.  It returns nil for an empty input or nodes from
// different trees.  This is the "minimum subtree t" of Section 4.1 of the
// paper: for every section there is a minimal subtree containing all its
// records.
func MinimalSubtree(nodes []*Node) *Node {
	if len(nodes) == 0 {
		return nil
	}
	acc := nodes[0]
	for _, n := range nodes[1:] {
		acc = CommonAncestor(acc, n)
		if acc == nil {
			return nil
		}
	}
	return acc
}
