package dom

import (
	"fmt"
	"strings"
)

// Direction is the second component of a path node: whether the next node
// on the path is the first child ("C") or the next sibling ("S") of the
// current node.
type Direction byte

const (
	// Child marks a step that descends to the first child.
	Child Direction = 'C'
	// Sibling marks a step that moves to the next sibling.
	Sibling Direction = 'S'
)

// PathNode is one step of a tag path: a tag name together with the
// direction taken to reach the next node on the path.
type PathNode struct {
	Tag string
	Dir Direction
}

// TagPath locates a node in a DOM tree by following first-child / next-
// sibling links from the root, as defined in Section 4.1 of the paper.
// The located node's own tag is not part of the path; the path's last step
// points at it.
type TagPath []PathNode

// PathOf computes the tag path of n from the root of its tree.  The root
// itself has an empty path.  Text and comment nodes are located the same
// way as elements; their step tags use the node-type label ("#text").
func PathOf(n *Node) TagPath {
	if l := PathLen(n); l > 0 {
		return AppendPath(make(TagPath, 0, l), n)
	}
	return nil
}

// PathLen returns len(PathOf(n)) without allocating: the number of
// first-child / next-sibling steps from the root to n.
func PathLen(n *Node) int {
	l := 0
	for n.Parent != nil {
		if n.PrevSibling != nil {
			n = n.PrevSibling
		} else {
			n = n.Parent
		}
		l++
	}
	return l
}

// AppendPath appends the tag path of n to dst and returns the extended
// slice.  Callers that pre-size dst (e.g. from PathLen, or out of an
// arena) get the path without any allocation.
func AppendPath(dst TagPath, n *Node) TagPath {
	base := len(dst)
	for n.Parent != nil {
		if n.PrevSibling != nil {
			n = n.PrevSibling
			dst = append(dst, PathNode{Tag: n.Label(), Dir: Sibling})
		} else {
			n = n.Parent
			dst = append(dst, PathNode{Tag: n.Label(), Dir: Child})
		}
	}
	// The walk produced the steps leaf-to-root; reverse into document order.
	for i, j := base, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}

// String renders the path in the paper's notation, e.g.
// "{html}C{head}S{body}C".
func (p TagPath) String() string {
	var sb strings.Builder
	for _, pn := range p {
		fmt.Fprintf(&sb, "{%s}%c", pn.Tag, pn.Dir)
	}
	return sb.String()
}

// ParseTagPath parses the notation produced by TagPath.String.  It is the
// inverse of String and is used when loading stored wrappers.
func ParseTagPath(s string) (TagPath, error) {
	var out TagPath
	for len(s) > 0 {
		if s[0] != '{' {
			return nil, fmt.Errorf("dom: bad tag path %q: expected '{'", s)
		}
		end := strings.IndexByte(s, '}')
		if end < 0 || end+1 >= len(s) {
			return nil, fmt.Errorf("dom: bad tag path %q: unterminated step", s)
		}
		tag := s[1:end]
		dir := Direction(s[end+1])
		if dir != Child && dir != Sibling {
			return nil, fmt.Errorf("dom: bad tag path %q: direction %q", s, dir)
		}
		out = append(out, PathNode{Tag: tag, Dir: dir})
		s = s[end+2:]
	}
	return out, nil
}

// CStep is one entry of a compact tag path: a C node together with the
// number of S steps that preceded it since the previous C node.  Compact
// tag paths remove the "noise" of varying sibling counts so that paths
// from different result pages of the same engine can be matched.
type CStep struct {
	Tag string
	// SBefore is the number of sibling steps between the previous C node
	// and this one.
	SBefore int
}

// CompactPath is a tag path reduced to its C nodes plus S-step counts.
type CompactPath []CStep

// Compact converts a tag path to its compact form.  Trailing S steps after
// the last C node are folded into a synthetic final entry with an empty
// tag, so that the full sibling offset of the target is preserved.
func (p TagPath) Compact() CompactPath {
	if l := p.CompactLen(); l > 0 {
		return p.AppendCompact(make(CompactPath, 0, l))
	}
	return nil
}

// CompactLen returns len(p.Compact()) without allocating.
func (p TagPath) CompactLen() int {
	l, s := 0, 0
	for _, pn := range p {
		switch pn.Dir {
		case Sibling:
			s++
		case Child:
			l++
			s = 0
		}
	}
	if s > 0 {
		l++
	}
	return l
}

// AppendCompact appends the compact form of p to dst and returns the
// extended slice; pre-sizing dst (from CompactLen or an arena) makes the
// conversion allocation-free.
func (p TagPath) AppendCompact(dst CompactPath) CompactPath {
	s := 0
	for _, pn := range p {
		switch pn.Dir {
		case Sibling:
			s++
		case Child:
			dst = append(dst, CStep{Tag: pn.Tag, SBefore: s})
			s = 0
		}
	}
	if s > 0 {
		dst = append(dst, CStep{Tag: "", SBefore: s})
	}
	return dst
}

// CTags returns the sequence of C-node tags of the compact path.
func (c CompactPath) CTags() []string {
	tags := make([]string, len(c))
	for i, st := range c {
		tags[i] = st.Tag
	}
	return tags
}

// Compatible reports whether two compact tag paths contain the same
// sequence of C nodes (Section 4.1).
func (c CompactPath) Compatible(o CompactPath) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if c[i].Tag != o[i].Tag {
			return false
		}
	}
	return true
}

// TotalS returns the total number of sibling steps along the compact path,
// i.e. sn(c_n, c_1) in the notation of Formula 1.
func (c CompactPath) TotalS() int {
	total := 0
	for _, st := range c {
		total += st.SBefore
	}
	return total
}

// String renders the compact path as "{tag}+k" steps, e.g.
// "{html}+0{body}+1{table}+2".
func (c CompactPath) String() string {
	var sb strings.Builder
	for _, st := range c {
		fmt.Fprintf(&sb, "{%s}+%d", st.Tag, st.SBefore)
	}
	return sb.String()
}

// ParseCompactPath parses the notation produced by CompactPath.String,
// e.g. "{html}+0{body}+1{table}+2".  It is used when loading stored
// wrappers.
func ParseCompactPath(s string) (CompactPath, error) {
	var out CompactPath
	for len(s) > 0 {
		if s[0] != '{' {
			return nil, fmt.Errorf("dom: bad compact path %q: expected '{'", s)
		}
		end := strings.IndexByte(s, '}')
		if end < 0 || end+1 >= len(s) || s[end+1] != '+' {
			return nil, fmt.Errorf("dom: bad compact path %q: malformed step", s)
		}
		tag := s[1:end]
		rest := s[end+2:]
		i := 0
		for i < len(rest) && rest[i] >= '0' && rest[i] <= '9' {
			i++
		}
		if i == 0 {
			return nil, fmt.Errorf("dom: bad compact path %q: missing S count", s)
		}
		n := 0
		for _, c := range rest[:i] {
			n = n*10 + int(c-'0')
		}
		out = append(out, CStep{Tag: tag, SBefore: n})
		s = rest[i:]
	}
	return out, nil
}

// PathDistance implements Formula 1 of the paper: the distance between two
// compatible compact tag paths is the sum of the absolute differences of
// the sibling-step counts between consecutive C nodes, normalized by the
// larger total sibling-step count.  Incompatible paths have distance +Inf
// conceptually; this function returns 1 plus the unnormalized mismatch to
// keep the value finite while still sorting after every compatible pair.
// Two identical paths have distance 0; two compatible paths with no
// sibling steps at all also have distance 0.
func PathDistance(a, b CompactPath) float64 {
	if !a.Compatible(b) {
		return incompatiblePathDistance(a, b)
	}
	sum := 0
	for i := range a {
		d := a[i].SBefore - b[i].SBefore
		if d < 0 {
			d = -d
		}
		sum += d
	}
	maxTotal := a.TotalS()
	if t := b.TotalS(); t > maxTotal {
		maxTotal = t
	}
	if maxTotal == 0 {
		return 0
	}
	return float64(sum) / float64(maxTotal)
}

// incompatiblePathDistance gives a finite but always-worse-than-compatible
// distance for incompatible paths: 1 + normalized tag-sequence edit
// distance, so that "more alike" incompatible paths still sort earlier.
func incompatiblePathDistance(a, b CompactPath) float64 {
	at, bt := a.CTags(), b.CTags()
	n, m := len(at), len(bt)
	if n == 0 && m == 0 {
		return 1
	}
	prev := make([]int, m+1)
	cur := make([]int, m+1)
	for j := 0; j <= m; j++ {
		prev[j] = j
	}
	for i := 1; i <= n; i++ {
		cur[0] = i
		for j := 1; j <= m; j++ {
			cost := 1
			if at[i-1] == bt[j-1] {
				cost = 0
			}
			c := prev[j-1] + cost
			if v := prev[j] + 1; v < c {
				c = v
			}
			if v := cur[j-1] + 1; v < c {
				c = v
			}
			cur[j] = c
		}
		prev, cur = cur, prev
	}
	maxLen := n
	if m > maxLen {
		maxLen = m
	}
	return 1 + float64(prev[m])/float64(maxLen)
}

// Locate follows a tag path from root and returns the node it reaches, or
// nil if the path cannot be followed (missing child or sibling).
func Locate(root *Node, p TagPath) *Node {
	n := root
	for i, pn := range p {
		if n == nil {
			return nil
		}
		if n.Label() != pn.Tag {
			return nil
		}
		switch pn.Dir {
		case Child:
			n = n.FirstChild
		case Sibling:
			n = n.NextSibling
		default:
			return nil
		}
		_ = i
	}
	return n
}

// LocateCompact finds the descendant of root whose compact tag path is
// compatible with target and has the smallest PathDistance to it.  It
// returns nil when no node with a compatible path exists.  This tolerant
// lookup is what makes stored wrappers robust against result pages whose
// repeated-sibling counts differ from the sample pages.
func LocateCompact(root *Node, target CompactPath) *Node {
	cands := LocateCompactAll(root, target)
	if len(cands) == 0 {
		return nil
	}
	return cands[0]
}

// LocatePattern returns, in document order, every node under root
// (inclusive) whose compact tag path equals pattern step for step: tags at
// every index, sibling counts at every index except wildcard — the free
// junction of a Type-2 section family.  A matched subtree is not searched
// further; it cannot contain another match.
func LocatePattern(root *Node, pattern CompactPath, wildcard int) []*Node {
	var matches []*Node
	root.Walk(func(n *Node) bool {
		cp := PathOf(n).Compact()
		if len(cp) != len(pattern) {
			return true
		}
		for i := range cp {
			if cp[i].Tag != pattern[i].Tag {
				return true
			}
			if i != wildcard && cp[i].SBefore != pattern[i].SBefore {
				return true
			}
		}
		matches = append(matches, n)
		return false
	})
	return matches
}

// LocateCompactAll returns every descendant of root whose compact tag path
// is compatible with target, ordered by increasing PathDistance (ties in
// document order).  Callers that can validate candidates by other evidence
// (boundary markers) should walk the list and take the first that
// validates.
//
// The compact path is maintained incrementally during one DFS — pushing a
// C step when descending, counting S steps across siblings — instead of
// recomputing PathOf(n).Compact() per node, which made wrapper application
// quadratic in tree depth and dominated its allocation profile.
func LocateCompactAll(root *Node, target CompactPath) []*Node {
	type cand struct {
		n    *Node
		d    float64
		docN int
	}
	var cands []cand
	// stack holds the C steps of the path to the node being visited;
	// okDepth is the length of the longest stack prefix whose tags match
	// target, so compatibility at any node is an O(1) check.  Paths are
	// absolute (from the tree root), so when root is an interior node the
	// stack starts from root's own path, exactly as PathOf produced.
	stack := make([]CStep, 0, 32)
	rootS := 0
	for _, pn := range PathOf(root) {
		switch pn.Dir {
		case Sibling:
			rootS++
		case Child:
			stack = append(stack, CStep{Tag: pn.Tag, SBefore: rootS})
			rootS = 0
		}
	}
	okDepth := 0
	for okDepth < len(stack) && okDepth < len(target) && target[okDepth].Tag == stack[okDepth].Tag {
		okDepth++
	}
	docN := 0

	// distanceTo computes PathDistance(current path, target) knowing the
	// paths are compatible: stack plus an optional trailing synthetic
	// {"", s} entry against target, with identical integer arithmetic.
	distanceTo := func(s int) float64 {
		sum, ta, tb := 0, 0, 0
		for i, st := range stack {
			d := st.SBefore - target[i].SBefore
			if d < 0 {
				d = -d
			}
			sum += d
			ta += st.SBefore
			tb += target[i].SBefore
		}
		if s > 0 {
			d := s - target[len(stack)].SBefore
			if d < 0 {
				d = -d
			}
			sum += d
			ta += s
			tb += target[len(stack)].SBefore
		}
		maxTotal := ta
		if tb > maxTotal {
			maxTotal = tb
		}
		if maxTotal == 0 {
			return 0
		}
		return float64(sum) / float64(maxTotal)
	}

	var visit func(n *Node, s int)
	visit = func(n *Node, s int) {
		docN++
		// A node's compact path is the stacked C steps plus, when S steps
		// trail the last C step, the synthetic {"", s} entry Compact emits.
		if okDepth == len(stack) {
			if s == 0 {
				if len(target) == len(stack) {
					cands = append(cands, cand{n: n, d: distanceTo(0), docN: docN})
				}
			} else if len(target) == len(stack)+1 && target[len(stack)].Tag == "" {
				cands = append(cands, cand{n: n, d: distanceTo(s), docN: docN})
			}
		}
		if n.FirstChild == nil {
			return
		}
		tag := n.Label()
		stack = append(stack, CStep{Tag: tag, SBefore: s})
		if okDepth == len(stack)-1 && okDepth < len(target) && target[okDepth].Tag == tag {
			okDepth++
		}
		cs := 0
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			visit(c, cs)
			cs++
		}
		stack = stack[:len(stack)-1]
		if okDepth > len(stack) {
			okDepth = len(stack)
		}
	}
	visit(root, 0)

	// Insertion sort by (distance, document order): candidate lists are
	// short (a handful of compatible subtrees per wrapper), and avoiding
	// sort.Slice keeps the comparator closure and reflect-based swapper off
	// the per-request allocation profile.
	for i := 1; i < len(cands); i++ {
		c := cands[i]
		j := i - 1
		for j >= 0 && (cands[j].d > c.d || (cands[j].d == c.d && cands[j].docN > c.docN)) {
			cands[j+1] = cands[j]
			j--
		}
		cands[j+1] = c
	}
	out := make([]*Node, len(cands))
	for j, c := range cands {
		out[j] = c.n
	}
	return out
}
