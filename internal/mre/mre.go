// Package mre implements the MRE algorithm of Section 5.1 of the MSE
// paper: extraction of multi-record sections (MRs) from a rendered result
// page.  MRE is the multi-section revision of the ViNTs record extractor
// [29]:
//
//  1. find consecutive content-line patterns — (type, position)
//     signatures — that occur at least three times;
//  2. partition the page's content lines into candidate record blocks at
//     the pattern occurrences;
//  3. group consecutive, visually similar blocks into candidate sections
//     (tentative MRs);
//  4. verify tentative MRs (enough records, low inter-record distance);
//  5. unlike ViNTs — which keeps only the single best MR — group tentative
//     MRs by the page area they occupy and keep the best MR per area.
//
// MRs produced here may still contain static repeating content, sections
// with wrong boundaries, and section/record granularity mistakes; Steps
// 4-6 of the pipeline (refine, mining, granularity) repair those, exactly
// as the paper prescribes.
package mre

import (
	"sort"

	"mse/internal/cancel"
	"mse/internal/layout"
	"mse/internal/sect"
	"mse/internal/visual"
)

// Options control MRE.
type Options struct {
	// GroupDistance is the maximum visual record distance between
	// consecutive blocks placed in the same candidate section.
	GroupDistance float64
	// MaxInterRecord is the verification bound on a tentative MR's
	// inter-record distance.
	MaxInterRecord float64
	// MinRecords is the minimum number of records for a tentative MR
	// (the paper notes MRE generally requires three or more).
	MinRecords int
	// MinOverlap is the fractional line overlap above which two tentative
	// MRs are considered to occupy the same page area.
	MinOverlap float64
}

// DefaultOptions returns the tuned defaults (tuned on sample pages only,
// as in §6 of the paper).
func DefaultOptions() Options {
	return Options{
		GroupDistance:  0.32,
		MaxInterRecord: 0.38,
		MinRecords:     3,
		MinOverlap:     0.5,
	}
}

// config is one Extract call's parameters: MRE's own options, the shared
// visual weights, and the token polled before each inter-record distance
// and cohesion score of a candidate section (the bulk of MRE's time on
// pages with long sections).
type config struct {
	Options
	*visual.Params
	tok *cancel.Token
}

// signature is a content-line pattern: the line's type code plus its
// position code.
type signature struct {
	typ layout.LineType
	x   int
}

// Extract runs MRE on a rendered page and returns the extracted
// multi-record sections in document order.  tok may be nil.
func Extract(p *layout.Page, vp *visual.Params, o Options, tok *cancel.Token) []*sect.Section {
	if len(p.Lines) == 0 {
		return nil
	}
	opt := config{Options: o, Params: vp, tok: tok}
	tentative := tentativeMRs(p, opt)
	if len(tentative) == 0 {
		return nil
	}
	groups := groupByArea(tentative, opt)
	out := make([]*sect.Section, 0, len(groups))
	for _, g := range groups {
		out = append(out, bestMR(g, opt))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// tentativeMRs builds candidate sections from every repeating line
// signature.
func tentativeMRs(p *layout.Page, opt config) []*sect.Section {
	occ := map[signature][]int{}
	for i, l := range p.Lines {
		if l.Type == layout.BlankLine || l.Type == layout.RuleLine {
			continue // separators never start records
		}
		s := signature{typ: l.Type, x: l.X}
		occ[s] = append(occ[s], i)
	}
	var sigs []signature
	for s, lines := range occ {
		if len(lines) >= opt.MinRecords {
			sigs = append(sigs, s)
		}
	}
	// Deterministic order.
	sort.Slice(sigs, func(i, j int) bool {
		if sigs[i].typ != sigs[j].typ {
			return sigs[i].typ < sigs[j].typ
		}
		return sigs[i].x < sigs[j].x
	})

	var tentative []*sect.Section
	for _, s := range sigs {
		tentative = append(tentative, sectionsForSignature(p, occ[s], opt)...)
	}
	return tentative
}

// sectionsForSignature partitions the page at the signature's occurrence
// lines (each occurrence starts a candidate record) and groups
// consecutive, visually similar blocks into candidate sections.
func sectionsForSignature(p *layout.Page, occs []int, opt config) []*sect.Section {
	blocks := make([]visual.Block, 0, len(occs))
	for i, start := range occs {
		end := len(p.Lines)
		if i+1 < len(occs) {
			end = occs[i+1]
		} else if i > 0 {
			// The extent of the final record is unknown; assume the same
			// length as the previous record (the refinement step fixes
			// boundary mistakes).
			prevLen := occs[i] - occs[i-1]
			if start+prevLen < end {
				end = start + prevLen
			}
		}
		blocks = append(blocks, visual.Block{Page: p, Start: start, End: end})
	}

	var out []*sect.Section
	var group []visual.Block
	flush := func() {
		if len(group) >= opt.MinRecords {
			s := sect.New(p, group[0].Start, group[len(group)-1].End)
			s.Records = append([]visual.Block(nil), group...)
			if verify(s, opt) {
				out = append(out, s)
			}
		}
		group = nil
	}
	for _, b := range blocks {
		// A horizontal rule is a template separator; a candidate record
		// containing one straddles a section boundary and must not join
		// (or bridge) any group.
		if containsRule(b) {
			flush()
			continue
		}
		if len(group) == 0 {
			group = append(group, b)
			continue
		}
		prev := group[len(group)-1]
		adjacent := prev.End == b.Start
		similar := visual.VisualRecordDistance(prev, b, opt.RecordWeights) <= opt.GroupDistance
		if adjacent && similar {
			group = append(group, b)
		} else {
			flush()
			group = append(group, b)
		}
	}
	flush()
	return out
}

func containsRule(b visual.Block) bool {
	for _, l := range b.Lines() {
		if l.Type == layout.RuleLine {
			return true
		}
	}
	return false
}

// verify checks a tentative MR: it must have at least MinRecords records
// whose full record distance (including tag forests) stays low.  (An
// additional ViNTs-style tag-path compatibility check was evaluated and
// rejected: sections with alternating record structure — e.g. records
// grouped pairwise under <tbody> — have legitimately incompatible
// first-line paths, and the inter-record distance already carries the
// structural signal through its tag-forest component.)
func verify(s *sect.Section, opt config) bool {
	if len(s.Records) < opt.MinRecords {
		return false
	}
	opt.tok.Check()
	return visual.InterRecordDistance(s.Records, opt.RecordWeights) <= opt.MaxInterRecord
}

// groupByArea clusters tentative MRs that occupy substantially the same
// page area (fractional line overlap above MinOverlap, measured against
// the smaller section).
func groupByArea(tentative []*sect.Section, opt config) [][]*sect.Section {
	n := len(tentative)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := tentative[i], tentative[j]
			ov := a.Overlap(b)
			minLen := a.Len()
			if b.Len() < minLen {
				minLen = b.Len()
			}
			if minLen > 0 && float64(ov)/float64(minLen) >= opt.MinOverlap {
				union(i, j)
			}
		}
	}
	byRoot := map[int][]*sect.Section{}
	for i, s := range tentative {
		r := find(i)
		byRoot[r] = append(byRoot[r], s)
	}
	var roots []int
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	groups := make([][]*sect.Section, 0, len(byRoot))
	for _, r := range roots {
		groups = append(groups, byRoot[r])
	}
	return groups
}

// bestMR selects the best tentative MR of an area group, mirroring the
// ViNTs wrapper-selection idea: prefer more records and lower inter-record
// distance; phase-shifted partitions (records starting mid-record) are
// penalized because their records straddle DOM subtrees and need several
// tag-forest roots each, where a correctly phased record sits on one.
func bestMR(group []*sect.Section, opt config) *sect.Section {
	best := group[0]
	bestScore := score(best, opt)
	for _, s := range group[1:] {
		if sc := score(s, opt); sc > bestScore {
			best, bestScore = s, sc
		}
	}
	return best
}

func score(s *sect.Section, opt config) float64 {
	// Cohesion (Formula 7) is the primary signal: partitions into
	// single-line fragments score zero diversity and partitions that
	// merge records score low diversity per line.  Alignment — every
	// record opening with the page's repeating first-line signature, and
	// that signature appearing once per record — earns a bonus, which is
	// what lets a section of one-line records (zero diversity by
	// definition) still beat a pairwise-merged alternative.
	opt.tok.Check()
	coh := visual.SectionCohesion(s.Records, opt.LineWeights, opt.RecordWeights)
	bonus := 0.0
	if uniformStarts(s) {
		bonus = 0.2
		switch s.Page.Lines[s.Records[0].Start].Type {
		case layout.LinkLine, layout.LinkTextLine, layout.ImageTextLine:
			bonus = 0.3 // records overwhelmingly open with their title link
		}
	}
	extraRoots := 0
	for _, r := range s.Records {
		if roots := len(r.Forest()); roots > 1 {
			extraRoots += roots - 1
		}
	}
	avgExtra := float64(extraRoots) / float64(len(s.Records))
	return (coh+bonus)/(1+0.4*avgExtra) + 0.001*float64(s.Len())
}

// uniformStarts reports whether every record of the section begins with
// one (type, x) line signature that occurs exactly once per record within
// the section.
func uniformStarts(s *sect.Section) bool {
	if len(s.Records) == 0 {
		return false
	}
	p := s.Page
	first := signature{p.Lines[s.Records[0].Start].Type, p.Lines[s.Records[0].Start].X}
	for _, r := range s.Records[1:] {
		if (signature{p.Lines[r.Start].Type, p.Lines[r.Start].X}) != first {
			return false
		}
	}
	count := 0
	for i := s.Start; i < s.End; i++ {
		if (signature{p.Lines[i].Type, p.Lines[i].X}) == first {
			count++
		}
	}
	return count == len(s.Records)
}
