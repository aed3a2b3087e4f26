// Package editdist implements the distance functions the MSE paper builds
// on: the Wagner-Fischer string edit distance (with pluggable element costs,
// used for block type codes, block shapes and block text attributes), the
// Zhang-Shasha ordered tree edit distance (used for record tag trees, [9]
// in the paper) and the tag-forest edit distance of Section 4.1 (a string
// edit distance over lists of tag trees whose substitution cost is the
// normalized tree edit distance).
package editdist

import (
	"sync"
	"sync/atomic"

	"mse/internal/cancel"
	"mse/internal/dom"
)

// treeCalls counts TreeEditDistance invocations process-wide.  Each call
// runs a full Zhang-Shasha dynamic program, so the count measures how much
// work a memoization cache could absorb; core exposes it per pipeline run
// as the "tree_dist_calls" counter.
var treeCalls atomic.Int64

// TreeCalls returns the cumulative number of tree edit distance
// computations since process start.  Callers interested in one pipeline
// run take the difference around it.
func TreeCalls() int64 { return treeCalls.Load() }

// Costs parameterizes a generic string edit distance over element indices.
// Sub returns the cost of substituting a[i] with b[j]; Del and Ins return
// deletion/insertion costs.  All costs must be non-negative.
type Costs struct {
	Sub func(i, j int) float64
	Del func(i int) float64
	Ins func(j int) float64
}

// UnitCosts returns the classic 0/1 Levenshtein cost model over elements
// compared with eq.
func UnitCosts(eq func(i, j int) bool) Costs {
	return Costs{
		Sub: func(i, j int) float64 {
			if eq(i, j) {
				return 0
			}
			return 1
		},
		Del: func(int) float64 { return 1 },
		Ins: func(int) float64 { return 1 },
	}
}

// stringsScratch pools the two DP rows of Strings.  The function sits on
// the hot path of every pairwise visual distance (type codes, shapes, text
// attributes), where per-call row allocations dominated the GC load.
var stringsScratch = sync.Pool{New: func() any { return new([]float64) }}

// Strings computes the edit distance between two abstract sequences of
// lengths n and m under the given cost model.
func Strings(n, m int, c Costs) float64 {
	sp := stringsScratch.Get().(*[]float64)
	buf := *sp
	if cap(buf) < 2*(m+1) {
		buf = make([]float64, 2*(m+1))
	}
	buf = buf[:2*(m+1)]
	prev, cur := buf[:m+1:m+1], buf[m+1:]
	prev[0] = 0
	for j := 1; j <= m; j++ {
		prev[j] = prev[j-1] + c.Ins(j-1)
	}
	for i := 1; i <= n; i++ {
		cur[0] = prev[0] + c.Del(i-1)
		for j := 1; j <= m; j++ {
			best := prev[j-1] + c.Sub(i-1, j-1)
			if v := prev[j] + c.Del(i-1); v < best {
				best = v
			}
			if v := cur[j-1] + c.Ins(j-1); v < best {
				best = v
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	d := prev[m]
	*sp = buf
	stringsScratch.Put(sp)
	return d
}

// StringDistance is the Levenshtein distance between two strings, counted
// in bytes.  It is used for comparing boundary-marker texts.
func StringDistance(a, b string) int {
	d := Strings(len(a), len(b), UnitCosts(func(i, j int) bool { return a[i] == b[j] }))
	return int(d)
}

// NormalizedStringDistance is StringDistance normalized by the longer
// length; it is 0 for equal strings and 1 for maximally different ones.
// Two empty strings have distance 0.
func NormalizedStringDistance(a, b string) float64 {
	maxLen := len(a)
	if len(b) > maxLen {
		maxLen = len(b)
	}
	if maxLen == 0 {
		return 0
	}
	return float64(StringDistance(a, b)) / float64(maxLen)
}

// --- Zhang-Shasha tree edit distance ------------------------------------

// zsTree is the post-order representation required by Zhang-Shasha.
type zsTree struct {
	labels []string // labels in post-order
	lmld   []int    // leftmost leaf descendant index for each node
	keys   []int    // key roots
}

func buildZS(root *dom.Node) *zsTree {
	t := &zsTree{}
	var post func(n *dom.Node) int // returns the node's post-order index
	post = func(n *dom.Node) int {
		firstLeaf := -1
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			idx := post(c)
			if firstLeaf == -1 {
				firstLeaf = t.lmld[idx]
			}
		}
		idx := len(t.labels)
		t.labels = append(t.labels, nodeLabel(n))
		if firstLeaf == -1 {
			firstLeaf = idx
		}
		t.lmld = append(t.lmld, firstLeaf)
		return idx
	}
	post(root)
	// Key roots: nodes with no left sibling on the path, i.e. the highest
	// node for each distinct leftmost-leaf value.
	highest := make(map[int]int)
	for i, l := range t.lmld {
		highest[l] = i
	}
	for _, i := range highest {
		t.keys = append(t.keys, i)
	}
	// Sort keys ascending (insertion sort; key sets are small).
	for i := 1; i < len(t.keys); i++ {
		for j := i; j > 0 && t.keys[j-1] > t.keys[j]; j-- {
			t.keys[j-1], t.keys[j] = t.keys[j], t.keys[j-1]
		}
	}
	return t
}

// nodeLabel mirrors dom.Node.Label but treats all text nodes as identical:
// tree edit distance measures tag structure, not content.
func nodeLabel(n *dom.Node) string {
	return n.Label()
}

// TreeEditDistance computes the Zhang-Shasha ordered edit distance between
// the subtrees rooted at t1 and t2 with unit costs on relabel/insert/
// delete.  Labels are tag names (all text nodes share one label).
func TreeEditDistance(t1, t2 *dom.Node) int {
	return TreeEditDistanceCancel(t1, t2, nil)
}

// TreeEditDistanceCancel is TreeEditDistance with a cooperative
// cancellation checkpoint in the dynamic program: the Zhang-Shasha outer
// (key-root pair) loop polls tok once per forest-distance block, so a
// canceled context aborts even a single pathological tree pair within one
// block's work rather than after the full O(n²m²) program.  A nil token
// compiles the checkpoints down to pointer comparisons.
func TreeEditDistanceCancel(t1, t2 *dom.Node, tok *cancel.Token) int {
	treeCalls.Add(1)
	if t1 == nil && t2 == nil {
		return 0
	}
	if t1 == nil {
		return t2.Size()
	}
	if t2 == nil {
		return t1.Size()
	}
	a := buildZS(t1)
	b := buildZS(t2)
	n, m := len(a.labels), len(b.labels)
	td := make([][]int, n)
	for i := range td {
		td[i] = make([]int, m)
	}
	// forest distance scratch, indexed from lmld..i+1 style offsets.
	fd := make([][]int, n+1)
	for i := range fd {
		fd[i] = make([]int, m+1)
	}
	for _, i := range a.keys {
		tok.Check()
		for _, j := range b.keys {
			li, lj := a.lmld[i], b.lmld[j]
			fd[li][lj] = 0
			for di := li; di <= i; di++ {
				fd[di+1][lj] = fd[di][lj] + 1
			}
			for dj := lj; dj <= j; dj++ {
				fd[li][dj+1] = fd[li][dj] + 1
			}
			for di := li; di <= i; di++ {
				tok.Check()
				for dj := lj; dj <= j; dj++ {
					if a.lmld[di] == li && b.lmld[dj] == lj {
						cost := 1
						if a.labels[di] == b.labels[dj] {
							cost = 0
						}
						best := fd[di][dj] + cost
						if v := fd[di][dj+1] + 1; v < best {
							best = v
						}
						if v := fd[di+1][dj] + 1; v < best {
							best = v
						}
						fd[di+1][dj+1] = best
						td[di][dj] = best
					} else {
						best := fd[a.lmld[di]][b.lmld[dj]] + td[di][dj]
						if v := fd[di][dj+1] + 1; v < best {
							best = v
						}
						if v := fd[di+1][dj] + 1; v < best {
							best = v
						}
						fd[di+1][dj+1] = best
					}
				}
			}
		}
	}
	return td[n-1][m-1]
}

// TreeDist is the tree edit distance normalized by the size of the larger
// tree, per Section 4.1 (Dtf over trees).  It lies in [0, 1] for unit
// costs.  Two nil trees have distance 0; one nil tree has distance 1.
//
// Distances are memoized process-wide by structural fingerprint pair (see
// cache.go): identical fingerprints return 0 immediately, leaf pairs are
// answered by label comparison, and every dynamic-program result is cached
// so structurally repeated subtrees are never re-measured.
func TreeDist(t1, t2 *dom.Node) float64 {
	return TreeDistCancel(t1, t2, nil)
}

// TreeDistCancel is TreeDist threading a cancellation token into the
// underlying dynamic program (see TreeEditDistanceCancel).  Cache lookups
// stay checkpoint-free — they are O(1) — so only cache misses poll.
func TreeDistCancel(t1, t2 *dom.Node, tok *cancel.Token) float64 {
	if t1 == nil && t2 == nil {
		return 0
	}
	if t1 == nil || t2 == nil {
		return 1
	}
	f1, f2 := t1.Fingerprint(), t2.Fingerprint()
	cache.lookups.Add(1)
	if f1 == f2 {
		cache.identical.Add(1)
		return 0
	}
	maxSize := f1.Size
	if f2.Size > maxSize {
		maxSize = f2.Size
	}
	if f1.Size == 1 && f2.Size == 1 {
		// Two single-node trees with different fingerprints: the labels
		// differ (equal labels hash equal), so the distance is one relabel.
		cache.earlyExits.Add(1)
		return 1
	}
	k := makeKey(f1, f2)
	if v, ok := cache.get(k); ok {
		cache.hits.Add(1)
		return v
	}
	cache.misses.Add(1)
	v := float64(TreeEditDistanceCancel(t1, t2, tok)) / float64(maxSize)
	cache.put(k, v)
	return v
}

// ForestDist is the tag-forest distance of Section 4.1: the string edit
// distance between two ordered lists of tag trees — substitution cost being
// the normalized tree edit distance — normalized by the length of the
// longer list.  It lies in [0, 1].
func ForestDist(f1, f2 []*dom.Node) float64 {
	return ForestDistCancel(f1, f2, nil)
}

// ForestDistCancel is ForestDist threading a cancellation token into every
// pairwise tree distance of the substitution cost model.
func ForestDistCancel(f1, f2 []*dom.Node, tok *cancel.Token) float64 {
	maxLen := len(f1)
	if len(f2) > maxLen {
		maxLen = len(f2)
	}
	if maxLen == 0 {
		return 0
	}
	d := Strings(len(f1), len(f2), Costs{
		Sub: func(i, j int) float64 { return TreeDistCancel(f1[i], f2[j], tok) },
		Del: func(int) float64 { return 1 },
		Ins: func(int) float64 { return 1 },
	})
	return d / float64(maxLen)
}
