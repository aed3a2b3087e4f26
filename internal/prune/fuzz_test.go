package prune_test

import (
	"math/rand"
	"testing"

	"mse/internal/dom"
	"mse/internal/htmlparse"
	"mse/internal/prune"
	"mse/internal/synth"
)

// FuzzRunMatchesLocate checks the candidate locator against the
// interpreted locates on arbitrary HTML.  From the parsed tree it derives
// a handful of specs — tolerant ones checked against
// dom.LocateCompactAll and pattern ones against dom.LocatePattern — each
// the compact path of a node in the tree with sibling counts perturbed
// (and now and then a tag swapped for another tag of the page), and
// requires one prune.Run over all of them to return, per spec, the same
// nodes in the same order.
func FuzzRunMatchesLocate(f *testing.F) {
	seeds := []string{
		"",
		"<p>x</p>",
		"<table><tr><td>a<td>b<tr><td>c<td>d</table>",
		"<ul><li>x<li>y<li>z</ul><ul><li>p</ul>",
		"<div><h3>S</h3><div><a href=1>A</a><br>s1</div><div><a href=2>B</a><br>s2</div></div>",
		"<b><i>nested <p> wrong",
	}
	for i, s := range seeds {
		f.Add(s, int64(i))
	}
	e := synth.GenerateTestbed(synth.DefaultConfig())[0]
	f.Add(e.Page(5).HTML, int64(7))
	f.Add(e.Drifted().Page(6).HTML, int64(8))
	f.Fuzz(func(t *testing.T, html string, seed int64) {
		doc := htmlparse.Parse(html)
		var nodes []*dom.Node
		doc.Walk(func(n *dom.Node) bool {
			nodes = append(nodes, n)
			return true
		})
		rng := rand.New(rand.NewSource(seed))
		var specs []prune.Spec
		for k := 0; k < 4; k++ {
			path := dom.PathOf(nodes[rng.Intn(len(nodes))]).Compact()
			if len(path) == 0 {
				continue
			}
			for i := range path {
				if rng.Intn(3) == 0 {
					path[i].SBefore += rng.Intn(5) - 2
				}
				if path[i].SBefore < 0 || (path[i].Tag == "" && path[i].SBefore == 0) {
					// Compact never emits negative counts or an empty
					// trailing step.
					path[i].SBefore = -path[i].SBefore + 1
				}
				if path[i].Tag != "" && rng.Intn(8) == 0 {
					path[i].Tag = nodes[rng.Intn(len(nodes))].Label()
				}
			}
			wildcard := -1
			if rng.Intn(2) == 0 {
				wildcard = rng.Intn(len(path))
			}
			specs = append(specs, prune.Spec{Path: path, Wildcard: wildcard})
		}
		res := prune.Run(doc, specs, nil)
		defer res.Release()
		for i, sp := range specs {
			var want []*dom.Node
			if sp.Wildcard < 0 {
				want = dom.LocateCompactAll(doc, sp.Path)
			} else {
				want = dom.LocatePattern(doc, sp.Path, sp.Wildcard)
			}
			if got := res.Cands(i); !sameNodes(got, want) {
				t.Fatalf("spec %d %v (wildcard %d): prune found %d candidates, interpreted locate %d (or order differs)",
					i, sp.Path, sp.Wildcard, len(got), len(want))
			}
		}
	})
}
