package prune_test

import (
	"testing"

	"mse/internal/core"
	"mse/internal/dom"
	"mse/internal/htmlparse"
	"mse/internal/prune"
	"mse/internal/synth"
	"mse/internal/wrapper"
)

// target pairs a prune spec with the interpreted locate it must reproduce.
type target struct {
	what   string
	spec   prune.Spec
	locate func(doc *dom.Node) []*dom.Node
}

// targetsOf derives one target per wrapper and family of ew: tolerant
// specs for wrappers and Type-1 families, located by dom.LocateCompactAll
// as SectionWrapper.Apply and Family.Apply do, and pattern specs for
// Type-2 families, located by dom.LocatePattern with the family's junction
// as the free index.
func targetsOf(ew *core.EngineWrapper) []target {
	var ts []target
	tolerant := func(what string, path dom.CompactPath) target {
		return target{what, prune.Spec{Path: path, Wildcard: -1},
			func(doc *dom.Node) []*dom.Node { return dom.LocateCompactAll(doc, path) }}
	}
	for _, w := range ew.Wrappers {
		ts = append(ts, tolerant("wrapper", w.Pref))
	}
	for _, f := range ew.Families {
		switch f.Type {
		case wrapper.Type1:
			ts = append(ts, tolerant("type-1 family", f.Pref))
		case wrapper.Type2:
			pat := append(append(dom.CompactPath(nil), f.Pref...), f.SPref...)
			junction := len(f.Pref)
			ts = append(ts, target{"type-2 family", prune.Spec{Path: pat, Wildcard: junction},
				func(doc *dom.Node) []*dom.Node { return dom.LocatePattern(doc, pat, junction) }})
		}
	}
	return ts
}

// TestRunMatchesInterpretedLocate is the soundness condition of the
// compiled extraction path: over the synthetic test bed, fresh and drifted
// pages, one prune.Run over all of an engine's specs must hand each spec
// exactly the candidate list — same nodes, same order — that the
// interpreted path locates for it with its own full DOM walk.
func TestRunMatchesInterpretedLocate(t *testing.T) {
	bed := synth.GenerateTestbed(synth.DefaultConfig())
	if testing.Short() {
		bed = bed[:12]
	}
	kinds := map[string]int{}
	for ei, e := range bed {
		var samples []*core.SamplePage
		for q := 0; q < 5; q++ {
			gp := e.Page(q)
			samples = append(samples, &core.SamplePage{HTML: gp.HTML, Query: gp.Query})
		}
		ew, err := core.BuildWrapper(samples, core.DefaultOptions())
		if err != nil {
			t.Fatalf("engine %d: %v", ei, err)
		}
		ts := targetsOf(ew)
		specs := make([]prune.Spec, len(ts))
		for i, tg := range ts {
			specs[i] = tg.spec
			kinds[tg.what]++
		}
		drifted := e.Drifted()
		for q := 5; q < 10; q++ {
			for _, page := range []struct {
				name string
				gp   *synth.GenPage
			}{{"fresh", e.Page(q)}, {"drifted", drifted.Page(q)}} {
				doc := htmlparse.Parse(page.gp.HTML)
				want := make([][]*dom.Node, len(ts))
				for i, tg := range ts {
					want[i] = tg.locate(doc)
				}
				res := prune.Run(doc, specs, nil)
				for i, tg := range ts {
					got := res.Cands(i)
					if !sameNodes(got, want[i]) {
						t.Errorf("engine %d %s page %d %s %d: prune found %d candidates, interpreted locate %d (or order differs)",
							ei, page.name, q, tg.what, i, len(got), len(want[i]))
					}
				}
				res.Release()
			}
		}
	}
	t.Logf("specs per kind: %v", kinds)
	for _, what := range []string{"wrapper", "type-1 family", "type-2 family"} {
		if kinds[what] == 0 {
			t.Errorf("test bed produced no %s spec; the check is vacuous for it", what)
		}
	}
}

func sameNodes(a, b []*dom.Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
