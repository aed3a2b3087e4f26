// Package baseline implements the comparison systems discussed in the
// paper's related-work section (§7):
//
//   - an MDR-style extractor [15]: per-page mining of "data regions" —
//     runs of structurally similar sibling subtrees — with no
//     static/dynamic differentiation, no wrapper, and a two-record
//     minimum.  The paper credits MDR as the only prior system that can
//     output multiple sections but notes it cannot tell dynamic sections
//     from static repeating content and does not address the granularity
//     or hidden-section problems;
//
//   - a ViNTs-style single-section extractor [29]: MRE restricted to the
//     single best multi-record section per page, the paper's own prior
//     work, which "simply assume[s] that there exists only one section to
//     be extracted".
//
// Both implement eval.Extractor so the evaluation harness and benches can
// score them against MSE on the same test bed.
package baseline

import (
	"mse/internal/core"
	"mse/internal/editdist"
	"mse/internal/htmlparse"
	"mse/internal/layout"
	"mse/internal/mre"
	"mse/internal/visual"

	"mse/internal/dom"
)

// MDR is the MDR-style per-page extractor.
type MDR struct {
	// SimilarityThreshold is the maximum normalized tree edit distance
	// between adjacent generalized nodes of one data region.
	SimilarityThreshold float64
	// MinRecords is MDR's structural minimum (two similar nodes).
	MinRecords int
}

// NewMDR returns an MDR baseline with the usual parameters.
func NewMDR() *MDR {
	return &MDR{SimilarityThreshold: 0.3, MinRecords: 2}
}

// Name implements eval.Extractor.
func (m *MDR) Name() string { return "MDR" }

// Train implements eval.Extractor; MDR generates no wrapper.
func (m *MDR) Train([]*core.SamplePage) error { return nil }

// Extract implements eval.Extractor: it mines data regions from the page.
func (m *MDR) Extract(html string, query []string) []*core.Section {
	page := layout.Render(htmlparse.Parse(html))
	var out []*core.Section
	m.mineNode(page, page.Doc, &out)
	return out
}

// mineNode looks for data regions among the children of n, recursing into
// children that are not part of a region.
func (m *MDR) mineNode(page *layout.Page, n *dom.Node, out *[]*core.Section) {
	kids := renderedChildren(page, n)
	used := make([]bool, len(kids))
	i := 0
	for i < len(kids) {
		j := i
		for j+1 < len(kids) &&
			editdist.WithinTreeDist(kids[j], kids[j+1], m.SimilarityThreshold) {
			j++
		}
		if j-i+1 >= m.MinRecords {
			if s := m.regionToSection(page, kids[i:j+1]); s != nil {
				*out = append(*out, s)
				for k := i; k <= j; k++ {
					used[k] = true
				}
			}
		}
		i = j + 1
	}
	for k, c := range kids {
		if !used[k] {
			m.mineNode(page, c, out)
		}
	}
}

func renderedChildren(page *layout.Page, n *dom.Node) []*dom.Node {
	var out []*dom.Node
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		if _, _, ok := page.Span(c); ok {
			out = append(out, c)
		}
	}
	return out
}

// regionToSection converts a run of similar sibling subtrees into a
// section with one record per subtree.
func (m *MDR) regionToSection(page *layout.Page, nodes []*dom.Node) *core.Section {
	first, _, ok := page.Span(nodes[0])
	if !ok {
		return nil
	}
	_, last, ok := page.Span(nodes[len(nodes)-1])
	if !ok {
		return nil
	}
	sec := &core.Section{Start: first, End: last + 1, Order: -1}
	for _, nd := range nodes {
		s, e, ok := page.Span(nd)
		if !ok {
			continue
		}
		rec := core.Record{Start: s, End: e + 1}
		for i := s; i <= e; i++ {
			rec.Lines = append(rec.Lines, page.Lines[i].Text)
			rec.Links = append(rec.Links, page.Lines[i].Links...)
		}
		sec.Records = append(sec.Records, rec)
	}
	if len(sec.Records) < m.MinRecords {
		return nil
	}
	return sec
}

// SingleSection is the ViNTs-style baseline: MRE, keeping only the single
// best MR per page.  It reads Options.Params and Options.MRE.
type SingleSection struct {
	Options core.Options
}

// NewSingleSection returns the baseline with the paper's parameters.
func NewSingleSection() *SingleSection {
	return &SingleSection{Options: core.DefaultOptions()}
}

// Name implements eval.Extractor.
func (s *SingleSection) Name() string { return "ViNTs-single" }

// Train implements eval.Extractor; the baseline is per-page.
func (s *SingleSection) Train([]*core.SamplePage) error { return nil }

// Extract implements eval.Extractor.
func (s *SingleSection) Extract(html string, query []string) []*core.Section {
	page := layout.Render(htmlparse.Parse(html))
	mrs := mre.Extract(page, &s.Options.Params, s.Options.MRE, nil)
	if len(mrs) == 0 {
		return nil
	}
	best := mrs[0]
	bestScore := sectionScore(best.Records, s.Options.RecordWeights)
	for _, mr := range mrs[1:] {
		if sc := sectionScore(mr.Records, s.Options.RecordWeights); sc > bestScore {
			best, bestScore = mr, sc
		}
	}
	sec := &core.Section{Start: best.Start, End: best.End, Order: 0}
	for _, b := range best.Records {
		rec := core.Record{Start: b.Start, End: b.End}
		for _, l := range b.Lines() {
			rec.Lines = append(rec.Lines, l.Text)
			rec.Links = append(rec.Links, l.Links...)
		}
		sec.Records = append(sec.Records, rec)
	}
	return []*core.Section{sec}
}

func sectionScore(records []visual.Block, w visual.RecordWeights) float64 {
	return float64(len(records)) * (1 - visual.InterRecordDistance(records, w))
}
