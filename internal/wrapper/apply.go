package wrapper

import (
	"strings"
	"sync"
	"sync/atomic"

	"mse/internal/dom"
	"mse/internal/dse"
	"mse/internal/layout"
	"mse/internal/mining"
	"mse/internal/visual"
)

// applyScratch is the per-Apply working state — most importantly the
// reusable line cleaner, whose query-term set and output buffer would
// otherwise be rebuilt for every boundary-marker comparison.  Pooled
// across requests when arenas are enabled.
type applyScratch struct {
	cleaner dse.LineCleaner
	// sigBuf is the reused root-signature buffer of the compiled partition
	// path (see partitionBySepCompiled).
	sigBuf []byte
	used   bool
}

var applyScratchPool = sync.Pool{New: func() any { return new(applyScratch) }}

// ApplyScratchStats are cumulative apply-scratch pool counters.
type ApplyScratchStats struct {
	Acquires uint64 `json:"acquires"`
	Reuses   uint64 `json:"reuses"`
}

var applyScratchStats struct {
	acquires atomic.Uint64
	reuses   atomic.Uint64
}

// ApplyScratchStatsSnapshot returns the current apply-scratch counters.
func ApplyScratchStatsSnapshot() ApplyScratchStats {
	return ApplyScratchStats{
		Acquires: applyScratchStats.acquires.Load(),
		Reuses:   applyScratchStats.reuses.Load(),
	}
}

// ExtractedRecord is one search result record pulled from a page.
type ExtractedRecord struct {
	// Lines are the record's content-line texts, in order.
	Lines []string
	// Links are the href values of anchors in the record.
	Links []string
	// Start and End give the record's line range on the page.
	Start, End int
}

// ExtractedSection is one extracted dynamic section with its records, the
// section-record relationship the paper requires wrappers to maintain.
type ExtractedSection struct {
	// Heading is the text of the section's left boundary marker, if any.
	Heading string
	// Order is the originating wrapper's section-schema position (-1 for
	// family-discovered hidden sections).
	Order int
	// Start and End give the section's line range on the page.
	Start, End int
	// Records are the section's records in order.
	Records []ExtractedRecord
	// FromFamily marks sections found via a section family rather than a
	// regular wrapper.
	FromFamily bool
}

// Apply runs the wrapper against a rendered page.  It returns nil when the
// section is absent.  query lists the query terms used to retrieve the
// page (they are removed before boundary-marker texts are compared); it
// may be nil.  Apply is the interpreted reference: extraction runs the
// compiled form (Compile), and tests pin the two to identical output.
func (w *SectionWrapper) Apply(p *layout.Page, query []string, opt Options) *ExtractedSection {
	// Candidates are every subtree with a compatible compact path, nearest
	// sibling counts first.  Boundary markers — not raw path distance —
	// decide which candidate is the section: the paper's SBMs "precisely
	// bound sections" (§2), and on pages where other sections are hidden
	// the sibling offsets shift while the markers stay.
	var sc *applyScratch
	if dom.ArenasEnabled() {
		sc = applyScratchPool.Get().(*applyScratch)
		defer applyScratchPool.Put(sc)
		applyScratchStats.acquires.Add(1)
		if sc.used {
			applyScratchStats.reuses.Add(1)
		}
		sc.used = true
	} else {
		sc = new(applyScratch)
	}
	sc.cleaner.Reset(query)

	cands := dom.LocateCompactAll(p.Doc, w.Pref)
	const maxCandidates = 24
	if len(cands) > maxCandidates {
		cands = cands[:maxCandidates]
	}
	for _, t := range cands {
		opt.Cancel.Check()
		if s := w.applyAt(p, t, &sc.cleaner, opt); s != nil {
			return s
		}
	}
	return nil
}

// applyAt attempts extraction with t as the section subtree; nil when the
// candidate fails boundary validation.
func (w *SectionWrapper) applyAt(p *layout.Page, t *dom.Node, cleaner *dse.LineCleaner, opt Options) *ExtractedSection {
	first, last, ok := p.Span(t)
	if !ok {
		return nil
	}
	start, end := first, last+1

	// Heading: the nearest preceding line matching a known LBM text.
	heading := ""
	if start > 0 {
		if txt := cleaner.Clean(&p.Lines[start-1]); matchesAny(txt, w.LBMs) {
			heading = p.Lines[start-1].Text
		}
	}
	// Flat layouts: the subtree contains the boundary lines themselves.
	// Clip the range to the lines between our LBM and the next boundary.
	if heading == "" {
		if lbm := findLineByText(p, start, end, w.LBMs, cleaner); lbm >= 0 {
			heading = p.Lines[lbm].Text
			start = lbm + 1
			for i := start; i < end; i++ {
				if attrsEqual(attrSetOf(p.Lines[i].Attrs), w.LBMAttrs) ||
					matchesAny(cleaner.Clean(&p.Lines[i]), w.RBMs) {
					end = i
					break
				}
			}
		}
	}
	if start >= end {
		return nil
	}
	// Boundary-marker validation: when the wrapper learned an LBM, the
	// candidate subtree must actually sit under that marker.
	if len(w.LBMs) > 0 && heading == "" {
		return nil
	}
	records := w.partition(p, start, end, opt)
	return &ExtractedSection{
		Heading: heading,
		Order:   w.Order,
		Start:   start,
		End:     end,
		Records: extractRecords(p, records),
	}
}

// partition splits [start, end) into records using the stored separator,
// falling back to cohesion-based mining when the separator does not match
// this page.
func (w *SectionWrapper) partition(p *layout.Page, start, end int, opt Options) []visual.Block {
	if blocks := partitionBySep(p, start, end, w.Sep); blocks != nil {
		return blocks
	}
	return mining.MineRecords(p, start, end, opt.Mining)
}

// partitionBySep applies a Separator to a line range; nil when the
// separator matches nothing there.  Records start at the forest roots
// whose structural signature equals the stored one.  When every root
// carries the signature (uniform rows without a distinctive first row)
// the roots-per-record count groups them instead.
func partitionBySep(p *layout.Page, start, end int, sep Separator) []visual.Block {
	roots := mining.ExpandedForest(p, start, end)
	if len(roots) == 0 {
		return nil
	}
	// The separator's signatures live at the record-root level; when the
	// section range spans container nodes (several sections merged into
	// one DS, or wrapper-level drift) the exact signatures may only match
	// one level deeper.  Descend while no root matches exactly.
	for depth := 0; depth < 3; depth++ {
		exact := 0
		for _, r := range roots {
			if sep.isStart(mining.RootSignature(r)) {
				exact++
			}
		}
		if exact > 0 {
			break
		}
		var kids []*dom.Node
		for _, r := range roots {
			for c := r.FirstChild; c != nil; c = c.NextSibling {
				if _, _, ok := p.Span(c); ok {
					kids = append(kids, c)
				}
			}
		}
		if len(kids) <= len(roots) {
			break
		}
		roots = kids
	}
	starts := 0
	var sigStarts []int
	// Tag lists of the unknown-signature fallback, derived at most once per
	// call instead of re-parsing every stored signature for every root.
	var startTags, interiorTags []string
	for _, r := range roots {
		sig := mining.RootSignature(r)
		isStart := sep.isStart(sig)
		if !isStart && !sep.isInterior(sig) {
			// Unknown signature (a record variant the samples never
			// showed, e.g. a record without its optional snippet).  Fall
			// back to the tag level: it starts a record when its tag is a
			// known start tag that never occurs inside records.
			if startTags == nil {
				startTags = tagsOf(sep.StartSigs)
				interiorTags = tagsOf(sep.InteriorSigs)
			}
			tag := sigTag(sig)
			isStart = containsString(startTags, tag) && !containsString(interiorTags, tag)
		}
		if isStart {
			starts++
			if s, _, ok := p.Span(r); ok {
				sigStarts = append(sigStarts, s)
			}
		}
	}
	switch {
	case starts == 0:
		return nil // separator does not match this page; mine instead
	case starts < len(roots) || sep.RootsPerRecord <= 1:
		// Start roots delimit records; interior/unknown roots attach to
		// the preceding record.
		return blocksFromStarts(p, start, end, sigStarts)
	default:
		// All roots look like starts but training saw multi-root records:
		// group uniformly.
		var groupStarts []int
		for i := 0; i < len(roots); i += sep.RootsPerRecord {
			if s, _, ok := p.Span(roots[i]); ok {
				groupStarts = append(groupStarts, s)
			}
		}
		return blocksFromStarts(p, start, end, groupStarts)
	}
}

// sigTag extracts the root tag from a structural signature.
func sigTag(sig string) string {
	if i := strings.IndexByte(sig, '('); i >= 0 {
		return sig[:i]
	}
	return sig
}

// tagsOf maps a signature list to its root tags.  The result is non-nil
// even for an empty list, so callers can use nil as a not-yet-computed
// sentinel.
func tagsOf(sigs []string) []string {
	out := make([]string, 0, len(sigs))
	for _, s := range sigs {
		out = append(out, sigTag(s))
	}
	return out
}

func blocksFromStarts(p *layout.Page, start, end int, starts []int) []visual.Block {
	if len(starts) == 0 {
		return nil
	}
	var out []visual.Block
	for i, s := range starts {
		if s < start {
			s = start
		}
		e := end
		if i+1 < len(starts) && starts[i+1] < e {
			e = starts[i+1]
		}
		if s < e {
			out = append(out, visual.Block{Page: p, Start: s, End: e})
		}
	}
	if len(out) > 0 {
		out[0].Start = start
	}
	return out
}

func extractRecords(p *layout.Page, blocks []visual.Block) []ExtractedRecord {
	out := make([]ExtractedRecord, 0, len(blocks))
	for _, b := range blocks {
		rec := ExtractedRecord{Start: b.Start, End: b.End}
		lines := b.Lines()
		if len(lines) > 0 {
			rec.Lines = make([]string, 0, len(lines))
		}
		nlinks := 0
		for i := range lines {
			nlinks += len(lines[i].Links)
		}
		if nlinks > 0 {
			rec.Links = make([]string, 0, nlinks)
		}
		for i := range lines {
			rec.Lines = append(rec.Lines, lines[i].Text)
			rec.Links = append(rec.Links, lines[i].Links...)
		}
		out = append(out, rec)
	}
	return out
}

// findLineByText returns the first line in [start, end) whose cleaned text
// matches one of the given texts, or -1.
func findLineByText(p *layout.Page, start, end int, texts []string, cleaner *dse.LineCleaner) int {
	if len(texts) == 0 {
		return -1
	}
	for i := start; i < end && i < len(p.Lines); i++ {
		if matchesAny(cleaner.Clean(&p.Lines[i]), texts) {
			return i
		}
	}
	return -1
}

func matchesAny(s string, list []string) bool {
	if s == "" {
		return false
	}
	for _, t := range list {
		if s == t {
			return true
		}
	}
	return false
}

// attrSetOf returns a sorted copy of a line's attribute set so it can be
// compared against stored wrapper attrs.
func attrSetOf(attrs []layout.TextAttr) []layout.TextAttr {
	out := append([]layout.TextAttr(nil), attrs...)
	sortAttrs(out)
	return out
}
