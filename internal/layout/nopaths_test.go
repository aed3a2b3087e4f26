package layout

import (
	"slices"
	"testing"

	"mse/internal/htmlparse"
	"mse/internal/synth"
)

// TestNoPathsRenderMatchesRender pins the invariant of the extraction
// render: RenderPooledNoPaths emits exactly the lines Render emits — same
// count, and per line the same Num, Text, X, Type, Attrs, Links and
// Leaves — and differs only in leaving Path and CPath unset.  Both renders
// run over one parsed doc, so leaves compare by identity.  The pages are
// the held-out queries 5-9 of the synthetic test bed, fresh and drifted.
func TestNoPathsRenderMatchesRender(t *testing.T) {
	bed := synth.GenerateTestbed(synth.DefaultConfig())
	if testing.Short() {
		bed = bed[:12]
	}
	lines := 0
	for ei, e := range bed {
		drifted := e.Drifted()
		for q := 5; q < 10; q++ {
			for _, page := range []struct {
				name string
				gp   *synth.GenPage
			}{{"fresh", e.Page(q)}, {"drifted", drifted.Page(q)}} {
				doc := htmlparse.Parse(page.gp.HTML)
				want := Render(doc).Lines
				p := RenderPooledNoPaths(doc, nil)
				got := p.Lines
				if len(got) != len(want) {
					t.Fatalf("engine %d %s page %d: %d lines, Render has %d", ei, page.name, q, len(got), len(want))
				}
				for i := range want {
					g, w := &got[i], &want[i]
					if g.Num != w.Num || g.Text != w.Text || g.X != w.X || g.Type != w.Type ||
						!slices.Equal(g.Attrs, w.Attrs) || !slices.Equal(g.Links, w.Links) || !slices.Equal(g.Leaves, w.Leaves) {
						t.Fatalf("engine %d %s page %d line %d:\n got %+v\nwant %+v", ei, page.name, q, i, *g, *w)
					}
					if g.Path != nil || g.CPath != nil {
						t.Fatalf("engine %d %s page %d line %d: path %v built on the extraction render", ei, page.name, q, i, g.Path)
					}
					if len(w.Leaves) > 0 && len(w.CPath) == 0 {
						t.Fatalf("engine %d %s page %d line %d: Render built no compact path", ei, page.name, q, i)
					}
				}
				lines += len(want)
				p.Release()
			}
		}
	}
	t.Logf("%d lines compared", lines)
}
