// Package refine implements Section 5.3 of the MSE paper: cross-checking
// the multi-record sections found by MRE against the dynamic sections
// found by DSE, because the two were obtained independently and their
// agreement pins down correct section boundaries.
//
// The paper's five relationship cases (Figure 6) are handled as follows:
//
//	case 1 (exact match)   — the MR's records become the DS's records;
//	case 2 (MR ⊃ DSs)      — each covered DS claims the MR records that
//	                         fall inside it; boundary negotiation (below)
//	                         fixes the edges;
//	case 3 (DS ⊃ MRs)      — the best-overlapping MR seeds the DS; the
//	                         uncovered remainder is re-processed against
//	                         the other MRs and finally re-mined;
//	case 4 (intersection)  — the Figure 8 algorithm: the overlap part OL
//	                         is trusted; records in the extra-MR part EM
//	                         are kept only while they resemble OL
//	                         (falsifying the LBM and extending the DS),
//	                         and the extra-DS part ED is consumed by
//	                         growing tentative records while they resemble
//	                         OL (threshold W × Dinr(OL), W = 1.8);
//	case 5 (no overlap)    — MRs without DS overlap are static repeating
//	                         content and are discarded; DSs without MR
//	                         overlap are kept for record mining (§5.4).
package refine

import (
	"sort"

	"mse/internal/cancel"
	"mse/internal/layout"
	"mse/internal/mining"
	"mse/internal/sect"
	"mse/internal/visual"
)

// Options control refinement.
type Options struct {
	// MaxBridgeGap is the widest run of CSBM lines between two DSs that a
	// record-like bridge may falsify (merge across).
	MaxBridgeGap int
}

// DefaultOptions returns the paper's parameters.
func DefaultOptions() Options {
	return Options{MaxBridgeGap: 2}
}

// config is one Refine call's parameters: refinement's own options, the
// shared visual parameters, the record mining used when unclaimed DS
// content is attached to a section, and the token polled before each
// W × Dinr threshold (the bulk of refinement's time on pages with long
// sections).
type config struct {
	Options
	*visual.Params
	mining mining.Options
	tok    *cancel.Token
}

// Refine reconciles the MRs and DSs of one page.  csbm are the page's
// CSBM marks (used to relocate boundary markers when a boundary is
// falsified).  The result is the page's refined section list in document
// order: sections with Records filled in where an MR vouched for them, and
// record-less sections (for Section 5.4 mining) elsewhere.  tok may be
// nil.
func Refine(page *layout.Page, mrs, dss []*sect.Section, csbm []bool, vp *visual.Params, mopt mining.Options, o Options, tok *cancel.Token) []*sect.Section {
	opt := &config{Options: o, Params: vp, mining: mopt, tok: tok}
	dss = mergeFalseBoundaries(page, mrs, dss, csbm, opt)
	var out []*sect.Section
	for _, ds := range dss {
		out = append(out, processDS(page, ds, mrs, csbm, opt, 0)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// mergeFalseBoundaries merges adjacent DSs whose separating CSBM lines are
// bridged by an MR record that resembles the surrounding records — the
// "LBM is false" branch of Figure 8 lifted to whole boundaries.
func mergeFalseBoundaries(page *layout.Page, mrs, dss []*sect.Section, csbm []bool, opt *config) []*sect.Section {
	if len(dss) < 2 {
		return dss
	}
	merged := true
	for merged {
		merged = false
		for i := 0; i+1 < len(dss); i++ {
			d1, d2 := dss[i], dss[i+1]
			gap := d2.Start - d1.End
			if gap < 1 || gap > opt.MaxBridgeGap {
				continue
			}
			if bridgeIsRecordLike(page, d1, d2, mrs, opt) {
				// Merge d2 (and the gap lines) into d1.
				d1.End = d2.End
				d1.RBM = d2.RBM
				dss = append(dss[:i+1], dss[i+2:]...)
				merged = true
				break
			}
		}
	}
	return dss
}

// bridgeIsRecordLike reports whether some MR has a record spanning the gap
// between d1 and d2 that is similar to the MR's records inside d1 and d2.
// A gap whose lines carry text attributes alien to the surrounding record
// lines (a styled heading) is a genuine boundary and never merged: false
// boundary markers are record-internal strings and look like record
// content, while real section headings are visually distinctive.
func bridgeIsRecordLike(page *layout.Page, d1, d2 *sect.Section, mrs []*sect.Section, opt *config) bool {
	if gapLooksLikeHeading(page, d1, d2) {
		return false
	}
	for _, mr := range mrs {
		var bridge *visual.Block
		var ol []visual.Block
		for i := range mr.Records {
			r := mr.Records[i]
			switch {
			case r.Start < d2.Start && r.End > d1.End:
				// The record overlaps the gap of CSBM lines between the
				// two DSs.
				bridge = &mr.Records[i]
			case insideDS(r, d1) || insideDS(r, d2):
				ol = append(ol, r)
			}
		}
		if bridge == nil || len(ol) < 2 {
			continue
		}
		thresh := threshold(ol, opt)
		if visual.AvgRecordDistance(*bridge, ol, opt.RecordWeights) <= thresh {
			return true
		}
	}
	return false
}

func insideDS(r visual.Block, ds *sect.Section) bool {
	return r.Start >= ds.Start && r.End <= ds.End
}

// gapLooksLikeHeading reports whether any CSBM line between d1 and d2 has
// a text-attribute set disjoint from the attributes of the neighbouring
// dynamic lines.
func gapLooksLikeHeading(page *layout.Page, d1, d2 *sect.Section) bool {
	recAttrs := map[layout.TextAttr]bool{}
	collect := func(start, end int) {
		for i := start; i < end && i < len(page.Lines); i++ {
			for _, a := range page.Lines[i].Attrs {
				recAttrs[a] = true
			}
		}
	}
	collect(d1.Start, d1.End)
	collect(d2.Start, d2.End)
	for i := d1.End; i < d2.Start && i < len(page.Lines); i++ {
		attrs := page.Lines[i].Attrs
		if len(attrs) == 0 {
			continue // rules and blanks carry no attrs; not heading evidence
		}
		shared := false
		for _, a := range attrs {
			if recAttrs[a] {
				shared = true
				break
			}
		}
		if !shared {
			return true
		}
	}
	return false
}

func threshold(ol []visual.Block, opt *config) float64 {
	opt.tok.Check()
	return opt.Threshold(ol)
}

// maxRefineDepth bounds the recursion on leftover DS pieces.
const maxRefineDepth = 8

// processDS aligns one DS with the best-overlapping MR.  It returns the
// refined sections covering the DS range: possibly a record-less left
// piece, the record-bearing core, and a record-less right piece, with the
// pieces re-processed against the remaining MRs.
func processDS(page *layout.Page, ds *sect.Section, mrs []*sect.Section, csbm []bool, opt *config, depth int) []*sect.Section {
	if ds.Len() <= 0 {
		return nil
	}
	if depth >= maxRefineDepth {
		return []*sect.Section{ds}
	}
	best := bestOverlapMR(ds, mrs)
	if best == nil {
		return processBare(page, ds, mrs, csbm, opt, depth)
	}
	// OL: the MR records fully inside the DS (verified by both MR and DS).
	var ol []visual.Block
	for _, r := range best.Records {
		if insideDS(r, ds) {
			ol = append(ol, r)
		}
	}
	if len(ol) == 0 {
		return processBare(page, ds, mrs, csbm, opt, depth)
	}

	// Hidden boundaries: a section whose heading never matched across
	// sample pages (query-dependent headings, sections missing elsewhere)
	// leaves its heading line *inside* the DS.  Heading lines are exactly
	// the lines whose text attributes are alien to the record lines; they
	// partition the DS before any record-level reasoning (§2: SBMs are a
	// must for correct section extraction in such layouts).
	if cut := findHiddenBoundary(page, ds, ol); cut >= 0 {
		left := sect.New(page, ds.Start, cut)
		left.LBM = ds.LBM
		right := sect.New(page, cut+1, ds.End)
		right.LBM = cut
		right.RBM = ds.RBM
		var out []*sect.Section
		out = append(out, processDS(page, left, mrs, csbm, opt, depth+1)...)
		out = append(out, processDS(page, right, mrs, csbm, opt, depth+1)...)
		return out
	}
	thresh := threshold(ol, opt)

	// --- EM handling: a record straddling the DS start (it contains the
	// DS's LBM).  If it resembles OL, the LBM was false: extend the DS
	// left and adopt the record. ---
	for _, r := range best.Records {
		if r.Start < ds.Start && r.End > ds.Start {
			if visual.AvgRecordDistance(r, ol, opt.RecordWeights) <= thresh {
				ds.Start = r.Start
				ds.LBM = previousCSBM(csbm, r.Start)
				ol = append([]visual.Block{r}, ol...)
			}
			break
		}
	}
	// Symmetric straddler at the DS end (contains the RBM).
	for _, r := range best.Records {
		if r.Start < ds.End && r.End > ds.End {
			if visual.AvgRecordDistance(r, ol, opt.RecordWeights) <= thresh {
				ds.End = r.End
				ds.RBM = nextCSBM(csbm, r.End)
				ol = append(ol, r)
			}
			break
		}
	}
	sort.Slice(ol, func(i, j int) bool { return ol[i].Start < ol[j].Start })

	// --- ED handling: grow tentative records into the uncovered DS parts
	// while they resemble OL (Figure 8, lines 7-12). ---
	coreStart, coreEnd := ol[0].Start, ol[len(ol)-1].End
	left := consumeED(page, ds.Start, coreStart, ol, opt, false)
	if len(left) > 0 {
		coreStart = left[0].Start
		ol = append(left, ol...)
	}
	right := consumeED(page, coreEnd, ds.End, ol, opt, true)
	if len(right) > 0 {
		ol = append(ol, right...)
		coreEnd = ol[len(ol)-1].End
	}

	core := sect.New(page, coreStart, coreEnd)
	core.Records = ol
	core.LBM = ds.LBM
	core.RBM = ds.RBM

	var out []*sect.Section
	// Remaining left piece.  When another MR explains it, it is a
	// different section sharing the DS (its boundary was hidden);
	// otherwise it is unclaimed content of *this* section that the
	// distance test was too strict for — attach it rather than orphan it
	// (there is no boundary marker of any kind between the piece and the
	// core).
	if coreStart > ds.Start {
		leftDS := sect.New(page, ds.Start, coreStart)
		leftDS.LBM = ds.LBM
		leftDS.RBM = -1
		if hasRecordInside(leftDS, otherMRs(mrs, best)) {
			out = append(out, processDS(page, leftDS, otherMRs(mrs, best), csbm, opt, depth+1)...)
			core.LBM = -1
		} else {
			attached := mining.MineRecords(page, leftDS.Start, leftDS.End, opt.Params, opt.mining)
			core.Records = append(attached, core.Records...)
			core.Start = leftDS.Start
		}
	}
	out = append(out, core)
	if coreEnd < ds.End {
		rightDS := sect.New(page, coreEnd, ds.End)
		rightDS.LBM = -1
		rightDS.RBM = ds.RBM
		if hasRecordInside(rightDS, otherMRs(mrs, best)) {
			out = append(out, processDS(page, rightDS, otherMRs(mrs, best), csbm, opt, depth+1)...)
			core.RBM = -1
		} else {
			attached := mining.MineRecords(page, rightDS.Start, rightDS.End, opt.Params, opt.mining)
			core.Records = append(core.Records, attached...)
			core.End = rightDS.End
		}
	}
	return out
}

// hasRecordInside reports whether any MR has a record fully inside the
// section range — the evidence required to treat a leftover DS piece as a
// section of its own rather than unclaimed content of its neighbour.
func hasRecordInside(ds *sect.Section, mrs []*sect.Section) bool {
	for _, mr := range mrs {
		for _, r := range mr.Records {
			if insideDS(r, ds) {
				return true
			}
		}
	}
	return false
}

// processBare handles a DS with no MR support: a leading heading-like line
// becomes the section's boundary marker, and interior heading-like lines
// split the DS into separate sections (hidden boundaries).
func processBare(page *layout.Page, ds *sect.Section, mrs []*sect.Section, csbm []bool, opt *config, depth int) []*sect.Section {
	if ds.Len() <= 0 {
		return nil
	}
	contentAttrs := linkLineAttrs(page, ds.Start, ds.End)
	if len(contentAttrs) == 0 || depth >= maxRefineDepth {
		return []*sect.Section{ds}
	}
	for i := ds.Start; i < ds.End; i++ {
		if !headingLike(&page.Lines[i], contentAttrs) {
			continue
		}
		if i == ds.Start {
			// Leading heading: it is the section's LBM, not content.
			trimmed := sect.New(page, ds.Start+1, ds.End)
			trimmed.LBM = ds.Start
			trimmed.RBM = ds.RBM
			return processBare(page, trimmed, mrs, csbm, opt, depth+1)
		}
		left := sect.New(page, ds.Start, i)
		left.LBM = ds.LBM
		right := sect.New(page, i+1, ds.End)
		right.LBM = i
		right.RBM = ds.RBM
		var out []*sect.Section
		out = append(out, processBare(page, left, mrs, csbm, opt, depth+1)...)
		out = append(out, processBare(page, right, mrs, csbm, opt, depth+1)...)
		return out
	}
	return []*sect.Section{ds}
}

// findHiddenBoundary returns the index of the first line of ds that lies
// outside every OL record and whose text attributes are alien to the OL
// record lines, or -1.
func findHiddenBoundary(page *layout.Page, ds *sect.Section, ol []visual.Block) int {
	recAttrs := map[layout.TextAttr]bool{}
	for _, r := range ol {
		for i := r.Start; i < r.End; i++ {
			for _, a := range page.Lines[i].Attrs {
				recAttrs[a] = true
			}
		}
	}
	if len(recAttrs) == 0 {
		return -1
	}
	inOL := func(i int) bool {
		for _, r := range ol {
			if i >= r.Start && i < r.End {
				return true
			}
		}
		return false
	}
	for i := ds.Start; i < ds.End; i++ {
		if inOL(i) {
			continue
		}
		l := &page.Lines[i]
		if l.Type != layout.TextLine || len(l.Attrs) == 0 {
			continue
		}
		alien := true
		for _, a := range l.Attrs {
			if recAttrs[a] || !decorated(a) {
				alien = false
				break
			}
		}
		if alien {
			return i
		}
	}
	return -1
}

// linkLineAttrs collects the attributes of the link-bearing lines in a
// range — the visual signature of record content.
func linkLineAttrs(page *layout.Page, start, end int) map[layout.TextAttr]bool {
	out := map[layout.TextAttr]bool{}
	for i := start; i < end; i++ {
		switch page.Lines[i].Type {
		case layout.LinkLine, layout.LinkTextLine, layout.ImageTextLine:
			for _, a := range page.Lines[i].Attrs {
				out[a] = true
			}
		}
	}
	return out
}

// headingLike reports whether a line looks like a section heading relative
// to the given content attributes: a text line whose attributes are all
// alien to the content AND visually decorated (bold, enlarged or colored —
// plain body text next to link-only titles must not qualify).
func headingLike(l *layout.Line, contentAttrs map[layout.TextAttr]bool) bool {
	if l.Type != layout.TextLine || len(l.Attrs) == 0 {
		return false
	}
	for _, a := range l.Attrs {
		if contentAttrs[a] || !decorated(a) {
			return false
		}
	}
	return true
}

// decorated reports whether a text attribute carries heading-strength
// emphasis: bold or larger than default body text.  Color alone does not
// qualify — colored plain-weight lines (green URLs, red prices) are record
// content, not headings.
func decorated(a layout.TextAttr) bool {
	return a.Style&layout.Bold != 0 || a.Size > 16
}

// consumeED grows tentative records from the boundary of OL into the
// extra-DS range and accepts each best-scoring tentative record while it
// stays within the W × Dinr(OL) threshold.  forward=true grows rightward
// from start..end; forward=false grows leftward (tentative records end at
// `end`).  Accepted records are returned in document order; ol is treated
// as read-only.
func consumeED(page *layout.Page, start, end int, ol []visual.Block, opt *config, forward bool) []visual.Block {
	var accepted []visual.Block
	all := append([]visual.Block(nil), ol...)
	for start < end {
		thresh := threshold(all, opt)
		bestLen, bestDist := 0, 0.0
		for k := 1; k <= end-start; k++ {
			var rt visual.Block
			if forward {
				rt = visual.Block{Page: page, Start: start, End: start + k}
			} else {
				rt = visual.Block{Page: page, Start: end - k, End: end}
			}
			d := visual.AvgRecordDistance(rt, all, opt.RecordWeights)
			if bestLen == 0 || d < bestDist {
				bestLen, bestDist = k, d
			}
		}
		if bestLen == 0 || bestDist > thresh {
			break
		}
		var rt visual.Block
		if forward {
			rt = visual.Block{Page: page, Start: start, End: start + bestLen}
			start += bestLen
			accepted = append(accepted, rt)
		} else {
			rt = visual.Block{Page: page, Start: end - bestLen, End: end}
			end -= bestLen
			accepted = append([]visual.Block{rt}, accepted...)
		}
		all = append(all, rt)
	}
	return accepted
}

// bestOverlapMR returns the MR with the largest line overlap with ds, or
// nil.
func bestOverlapMR(ds *sect.Section, mrs []*sect.Section) *sect.Section {
	var best *sect.Section
	bestOv := 0
	for _, mr := range mrs {
		if ov := ds.Overlap(mr); ov > bestOv {
			best, bestOv = mr, ov
		}
	}
	return best
}

func otherMRs(mrs []*sect.Section, used *sect.Section) []*sect.Section {
	out := make([]*sect.Section, 0, len(mrs))
	for _, mr := range mrs {
		if mr != used {
			out = append(out, mr)
		}
	}
	return out
}

func previousCSBM(csbm []bool, before int) int {
	for i := before - 1; i >= 0; i-- {
		if csbm[i] {
			return i
		}
	}
	return -1
}

func nextCSBM(csbm []bool, from int) int {
	for i := from; i < len(csbm); i++ {
		if csbm[i] {
			return i
		}
	}
	return -1
}
