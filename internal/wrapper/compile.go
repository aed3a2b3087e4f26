package wrapper

// Wrapper application (DESIGN.md §12).  A learned SectionWrapper or Family
// is an interpretable description: separator signatures are strings and
// boundary markers are string lists.  Compile lowers a wrapper once into
// the matcher that applies it to pages:
//
//   - separator signatures are interned to dom.SigAtom integers, so
//     per-block classification is an append into a reused byte buffer, one
//     allocation-free map probe and a few integer compares — no per-page
//     string materialization;
//   - the tag lists of the unknown-signature fallback (the tag-level
//     classification of signatures the samples never showed) are derived
//     once, at compile time;
//   - boundary-marker texts are wrapped in a markerSet with a length
//     bitmask prefilter, so the common miss costs one mask test;
//   - attribute-set comparisons run directly against the wrapper's stored
//     (sorted, duplicate-free) sets, without sorting a copy of the line's.
//
// Application consumes candidate subtrees located by the caller — the
// prune pass (internal/prune) during extraction — instead of walking the
// tree itself.

import (
	"strings"

	"mse/internal/dom"
	"mse/internal/layout"
	"mse/internal/mining"
	"mse/internal/visual"
)

// compiledSep is a Separator lowered to interned atoms plus the
// precomputed tag lists of the unknown-signature fallback.
type compiledSep struct {
	startAtoms     []dom.SigAtom
	interiorAtoms  []dom.SigAtom
	startTags      []string
	interiorTags   []string
	rootsPerRecord int
}

func compileSep(s Separator) compiledSep {
	cs := compiledSep{rootsPerRecord: s.RootsPerRecord}
	for _, sig := range s.StartSigs {
		cs.startAtoms = append(cs.startAtoms, dom.InternSig(sig))
		cs.startTags = append(cs.startTags, sigTag(sig))
	}
	for _, sig := range s.InteriorSigs {
		cs.interiorAtoms = append(cs.interiorAtoms, dom.InternSig(sig))
		cs.interiorTags = append(cs.interiorTags, sigTag(sig))
	}
	return cs
}

func atomIn(list []dom.SigAtom, a dom.SigAtom) bool {
	if a == 0 {
		return false
	}
	for _, x := range list {
		if x == a {
			return true
		}
	}
	return false
}

// labelTag is sigTag(RootSignature(n)) without building the signature: the
// node label truncated at the first '(' (which, for sane tag names, is the
// whole label).
func labelTag(n *dom.Node) string {
	l := n.Label()
	if i := strings.IndexByte(l, '('); i >= 0 {
		return l[:i]
	}
	return l
}

// markerSet matches a line's cleaned text against boundary-marker texts.
// The length bitmask rejects most misses with one AND.
type markerSet struct {
	texts   []string
	lenMask uint64
}

// lenBit is the length-bitmask bit of s: bit len(s), with bit 63 standing
// in for all lengths >= 63.
func lenBit(s string) uint64 {
	if len(s) >= 63 {
		return 1 << 63
	}
	return 1 << len(s)
}

func newMarkerSet(texts []string) markerSet {
	m := markerSet{texts: texts}
	for _, t := range texts {
		m.lenMask |= lenBit(t)
	}
	return m
}

// match reports whether s equals one of the marker texts.  The empty
// string never matches: a line whose cleaned text is empty (all query
// terms, or no text) carries no marker evidence.
func (m *markerSet) match(s string) bool {
	if s == "" {
		return false
	}
	if m.lenMask&lenBit(s) == 0 {
		return false
	}
	for _, t := range m.texts {
		if s == t {
			return true
		}
	}
	return false
}

// attrSetEqual reports whether a line's attribute set equals a stored
// wrapper attribute set.  Both sides are duplicate-free (lines dedup at
// render, wrapper sets come from map keys), so equal length plus
// membership is set equality; no sorted copy is needed.
func attrSetEqual(lineAttrs, target []layout.TextAttr) bool {
	if len(lineAttrs) != len(target) {
		return false
	}
	for _, a := range lineAttrs {
		found := false
		for _, b := range target {
			if a == b {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// CompiledWrapper is the compiled form of a SectionWrapper.  It holds a
// reference to — never a mutated copy of — the source wrapper, so the
// wrapper's JSON form is unchanged by compilation.
type CompiledWrapper struct {
	w    *SectionWrapper
	sep  compiledSep
	lbms markerSet
	rbms markerSet
}

// Compile lowers a wrapper to its compiled form.  Interning touches the
// process-wide signature table; call it at wrapper-build/registry time,
// not per page.
func Compile(w *SectionWrapper) *CompiledWrapper {
	return &CompiledWrapper{
		w:    w,
		sep:  compileSep(w.Sep),
		lbms: newMarkerSet(w.LBMs),
		rbms: newMarkerSet(w.RBMs),
	}
}

// Apply runs the wrapper against a rendered page and returns its section,
// or nil when the section is absent.  cands are the subtrees whose compact
// path is compatible with the wrapper's Pref, ordered by increasing path
// distance with ties in document order (dom.LocateCompactAll's order).
// query lists the query terms used to retrieve the page (they are removed
// before boundary-marker texts are compared); it may be nil.
//
// Boundary markers — not raw path distance — decide which candidate is
// the section: the paper's SBMs "precisely bound sections" (§2), and on
// pages where other sections are hidden the sibling offsets shift while
// the markers stay.
func (cw *CompiledWrapper) Apply(p *layout.Page, cands []*dom.Node, query []string, opt Options) *ExtractedSection {
	sc := acquireApplyScratch()
	defer applyScratchPool.Put(sc)
	sc.cleaner.Reset(query)

	const maxCandidates = 24
	if len(cands) > maxCandidates {
		cands = cands[:maxCandidates]
	}
	for _, t := range cands {
		opt.Cancel.Check()
		if s := cw.applyAt(p, t, sc, opt); s != nil {
			return s
		}
	}
	return nil
}

// applyAt attempts extraction with t as the section subtree; nil when the
// candidate fails boundary validation.
func (cw *CompiledWrapper) applyAt(p *layout.Page, t *dom.Node, sc *applyScratch, opt Options) *ExtractedSection {
	w := cw.w
	first, last, ok := p.Span(t)
	if !ok {
		return nil
	}
	start, end := first, last+1

	// Heading: the nearest preceding line matching a known LBM text.
	heading := ""
	if start > 0 {
		if txt := sc.cleaner.Clean(&p.Lines[start-1]); cw.lbms.match(txt) {
			heading = p.Lines[start-1].Text
		}
	}
	// Flat layouts: the subtree contains the boundary lines themselves.
	// Clip the range to the lines between our LBM and the next boundary.
	if heading == "" && len(cw.lbms.texts) > 0 {
		lbm := -1
		for i := start; i < end && i < len(p.Lines); i++ {
			if cw.lbms.match(sc.cleaner.Clean(&p.Lines[i])) {
				lbm = i
				break
			}
		}
		if lbm >= 0 {
			heading = p.Lines[lbm].Text
			start = lbm + 1
			for i := start; i < end; i++ {
				if attrSetEqual(p.Lines[i].Attrs, w.LBMAttrs) ||
					cw.rbms.match(sc.cleaner.Clean(&p.Lines[i])) {
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
	records := cw.sep.partition(p, start, end, sc, opt)
	return &ExtractedSection{
		Heading: heading,
		Order:   w.Order,
		Start:   start,
		End:     end,
		Records: extractRecords(p, records),
	}
}

// partition splits [start, end) into records with the separator, falling
// back to cohesion-based mining when the separator does not match this
// page.
func (cs *compiledSep) partition(p *layout.Page, start, end int, sc *applyScratch, opt Options) []visual.Block {
	if blocks := partitionBySepCompiled(p, start, end, cs, sc); blocks != nil {
		return blocks
	}
	return mining.MineRecords(p, start, end, opt.Mining)
}

// partitionBySepCompiled applies a separator to a line range; nil when the
// separator matches nothing there.  Records start at the forest roots
// whose structural signature is a stored start signature.  When every root
// carries one (uniform rows without a distinctive first row) the
// roots-per-record count groups them instead.  Root signatures are
// appended into the scratch's reused buffer and resolved with one
// allocation-free table probe each.
func partitionBySepCompiled(p *layout.Page, start, end int, cs *compiledSep, sc *applyScratch) []visual.Block {
	roots := mining.ExpandedForest(p, start, end)
	if len(roots) == 0 {
		return nil
	}
	buf := sc.sigBuf
	// The separator's signatures live at the record-root level; when the
	// section range spans container nodes (several sections merged into
	// one DS, or wrapper-level drift) the exact signatures may only match
	// one level deeper.  Descend while no root matches exactly.
	for depth := 0; depth < 3; depth++ {
		exact := 0
		for _, r := range roots {
			buf = mining.AppendRootSignature(buf[:0], r)
			if atomIn(cs.startAtoms, dom.LookupSigBytes(buf)) {
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
	for _, r := range roots {
		buf = mining.AppendRootSignature(buf[:0], r)
		atom := dom.LookupSigBytes(buf)
		isStart := atomIn(cs.startAtoms, atom)
		if !isStart && !atomIn(cs.interiorAtoms, atom) {
			// Unknown signature (a record variant the samples never
			// showed, e.g. a record without its optional snippet).  Fall
			// back to the tag level: it starts a record when its tag is a
			// known start tag that never occurs inside records.
			tag := labelTag(r)
			isStart = containsString(cs.startTags, tag) && !containsString(cs.interiorTags, tag)
		}
		if isStart {
			starts++
			if s, _, ok := p.Span(r); ok {
				sigStarts = append(sigStarts, s)
			}
		}
	}
	sc.sigBuf = buf
	switch {
	case starts == 0:
		return nil // separator does not match this page; mine instead
	case starts < len(roots) || cs.rootsPerRecord <= 1:
		// Start roots delimit records; interior/unknown roots attach to
		// the preceding record.
		return blocksFromStarts(p, start, end, sigStarts)
	default:
		// All roots look like starts but training saw multi-root records:
		// group uniformly.
		var groupStarts []int
		for i := 0; i < len(roots); i += cs.rootsPerRecord {
			if s, _, ok := p.Span(roots[i]); ok {
				groupStarts = append(groupStarts, s)
			}
		}
		return blocksFromStarts(p, start, end, groupStarts)
	}
}

// CompiledFamily is the compiled form of a Family.
type CompiledFamily struct {
	f   *Family
	sep compiledSep
}

// CompileFamily lowers a family to its compiled form.
func CompileFamily(f *Family) *CompiledFamily {
	return &CompiledFamily{f: f, sep: compileSep(f.Sep)}
}

// ApplyCands runs the family against a page and returns every member
// section found — including hidden ones that no sample page exhibited
// (§5.8).  For Type 1, cands are the Pref candidates in
// dom.LocateCompactAll order and the first is the shared subtree; for
// Type 2 they are the Pref+SPref pattern matches in document order, as
// dom.LocatePattern produces them.
func (cf *CompiledFamily) ApplyCands(p *layout.Page, cands []*dom.Node, opt Options) []*ExtractedSection {
	sc := acquireApplyScratch()
	defer applyScratchPool.Put(sc)
	switch cf.f.Type {
	case Type1:
		if len(cands) == 0 {
			return nil
		}
		return cf.applyType1(p, cands[0], sc, opt)
	case Type2:
		return cf.applyType2(p, cands, sc, opt)
	}
	return nil
}

// applyType1 splits the shared subtree's lines at boundary lines carrying
// the family's LBM attributes.
func (cf *CompiledFamily) applyType1(p *layout.Page, t *dom.Node, sc *applyScratch, opt Options) []*ExtractedSection {
	f := cf.f
	first, last, ok := p.Span(t)
	if !ok {
		return nil
	}
	var out []*ExtractedSection
	heading := ""
	secStart := -1
	flush := func(end int) {
		if secStart < 0 || secStart >= end {
			return
		}
		recs := cf.sep.partition(p, secStart, end, sc, opt)
		out = append(out, &ExtractedSection{
			Heading:    heading,
			Order:      -1,
			Start:      secStart,
			End:        end,
			Records:    extractRecords(p, recs),
			FromFamily: true,
		})
	}
	for i := first; i <= last; i++ {
		if attrSetEqual(p.Lines[i].Attrs, f.LBMAttrs) {
			opt.Cancel.Check()
			flush(i)
			heading = p.Lines[i].Text
			secStart = i + 1
		}
	}
	flush(last + 1)
	return out
}

// applyType2 takes each pattern match as one member section.  Matches
// arrive in document order and never nest, so the sections come out
// sorted by Start.
func (cf *CompiledFamily) applyType2(p *layout.Page, matches []*dom.Node, sc *applyScratch, opt Options) []*ExtractedSection {
	f := cf.f
	var out []*ExtractedSection
	for _, t := range matches {
		opt.Cancel.Check()
		first, last, ok := p.Span(t)
		if !ok {
			continue
		}
		// §5.8: member sections are recognized by their boundary markers'
		// distinctive text attributes.  A candidate subtree without an
		// aLBM-attributed line directly above it is page furniture that
		// merely shares the tag shape (navigation rows, footers, …).
		if first == 0 || !attrSetEqual(p.Lines[first-1].Attrs, f.LBMAttrs) {
			continue
		}
		heading := p.Lines[first-1].Text
		recs := cf.sep.partition(p, first, last+1, sc, opt)
		out = append(out, &ExtractedSection{
			Heading:    heading,
			Order:      -1,
			Start:      first,
			End:        last + 1,
			Records:    extractRecords(p, recs),
			FromFamily: true,
		})
	}
	return out
}
