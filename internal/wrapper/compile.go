package wrapper

// Wrapper compilation (DESIGN.md §12).  A learned SectionWrapper or Family
// is an interpretable description: separator signatures are strings,
// boundary markers are string lists, and application re-derives per-page
// facts (root signatures, marker comparisons) from scratch on every page.
// Compile lowers a wrapper once into a specialized matcher:
//
//   - separator signatures are interned to dom.SigAtom integers, so
//     per-block classification is an append into a reused byte buffer, one
//     allocation-free map probe and a few integer compares — no per-page
//     string materialization;
//   - fallback tag lists (the tag-level classification of signatures the
//     samples never showed) are precomputed instead of being re-derived
//     from the signature strings per root;
//   - boundary-marker texts are wrapped in a markerSet with a length
//     bitmask prefilter, so the common miss costs one mask test;
//   - attribute-set comparisons run directly against the wrapper's stored
//     (sorted, duplicate-free) sets without the per-line sorted copy that
//     attrSetOf makes.
//
// Compiled application consumes candidate subtrees produced by the prune
// pass (internal/prune) instead of running its own LocateCompactAll DFS;
// the candidate lists are element-identical, so compiled extraction is
// byte-identical to the interpreted path (pinned by differential tests).

import (
	"strings"
	"sync/atomic"

	"mse/internal/dom"
	"mse/internal/layout"
	"mse/internal/mining"
	"mse/internal/visual"
)

// CompiledStats are cumulative compiled-application counters; exposed on
// /metrics by the extraction service.
type CompiledStats struct {
	// Hits counts wrapper/family applications served by compiled forms.
	Hits uint64 `json:"hits"`
}

var compiledHits atomic.Uint64

// CompiledStatsSnapshot returns the current compiled-path counters.
func CompiledStatsSnapshot() CompiledStats {
	return CompiledStats{Hits: compiledHits.Load()}
}

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
// The length bitmask rejects most misses with one AND (bit 63 stands in
// for all lengths >= 63).
type markerSet struct {
	texts   []string
	lenMask uint64
}

func newMarkerSet(texts []string) markerSet {
	m := markerSet{texts: texts}
	for _, t := range texts {
		b := uint(len(t))
		if b > 63 {
			b = 63
		}
		m.lenMask |= 1 << b
	}
	return m
}

// match replicates matchesAny: the empty string never matches.
func (m *markerSet) match(s string) bool {
	if s == "" {
		return false
	}
	b := uint(len(s))
	if b > 63 {
		b = 63
	}
	if m.lenMask&(1<<b) == 0 {
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
// wrapper attribute set, without the sorted copy attrSetOf makes.  Both
// sides are duplicate-free (lines dedup at render, wrapper sets come from
// map keys), so equal length plus membership is set equality — which for
// duplicate-free sets coincides with the sorted-slice equality of
// attrsEqual(attrSetOf(lineAttrs), target).
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

// acquireApplyScratch returns a per-application scratch, pooled when
// arenas are enabled; the second result tells the caller to return it to
// applyScratchPool.
func acquireApplyScratch() (*applyScratch, bool) {
	if dom.ArenasEnabled() {
		sc := applyScratchPool.Get().(*applyScratch)
		applyScratchStats.acquires.Add(1)
		if sc.used {
			applyScratchStats.reuses.Add(1)
		}
		sc.used = true
		return sc, true
	}
	return new(applyScratch), false
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

// Source returns the wrapper this compiled form was lowered from.
func (cw *CompiledWrapper) Source() *SectionWrapper { return cw.w }

// Apply is SectionWrapper.Apply with the candidate subtrees supplied by
// the caller (the prune pass) instead of an internal LocateCompactAll
// walk.  cands must be ordered by increasing path distance with ties in
// document order — exactly LocateCompactAll's order — for the result to
// match the interpreted path.
func (cw *CompiledWrapper) Apply(p *layout.Page, cands []*dom.Node, query []string, opt Options) *ExtractedSection {
	compiledHits.Add(1)
	sc, pooled := acquireApplyScratch()
	if pooled {
		defer applyScratchPool.Put(sc)
	}
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

// applyAt mirrors SectionWrapper.applyAt over the compiled matchers.
func (cw *CompiledWrapper) applyAt(p *layout.Page, t *dom.Node, sc *applyScratch, opt Options) *ExtractedSection {
	w := cw.w
	first, last, ok := p.Span(t)
	if !ok {
		return nil
	}
	start, end := first, last+1

	heading := ""
	if start > 0 {
		if txt := sc.cleaner.Clean(&p.Lines[start-1]); cw.lbms.match(txt) {
			heading = p.Lines[start-1].Text
		}
	}
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
	if len(w.LBMs) > 0 && heading == "" {
		return nil
	}
	records := cw.partition(p, start, end, sc, opt)
	return &ExtractedSection{
		Heading: heading,
		Order:   w.Order,
		Start:   start,
		End:     end,
		Records: extractRecords(p, records),
	}
}

func (cw *CompiledWrapper) partition(p *layout.Page, start, end int, sc *applyScratch, opt Options) []visual.Block {
	if blocks := partitionBySepCompiled(p, start, end, &cw.sep, sc); blocks != nil {
		return blocks
	}
	return mining.MineRecords(p, start, end, opt.Mining)
}

// partitionBySepCompiled is partitionBySep over interned atoms: root
// signatures are appended into the scratch's reused buffer and resolved
// with one allocation-free table probe each.
func partitionBySepCompiled(p *layout.Page, start, end int, cs *compiledSep, sc *applyScratch) []visual.Block {
	roots := mining.ExpandedForest(p, start, end)
	if len(roots) == 0 {
		return nil
	}
	buf := sc.sigBuf
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
			// Unknown signature: tag-level fallback, as in partitionBySep.
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
		return nil
	case starts < len(roots) || cs.rootsPerRecord <= 1:
		return blocksFromStarts(p, start, end, sigStarts)
	default:
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

// Source returns the family this compiled form was lowered from.
func (cf *CompiledFamily) Source() *Family { return cf.f }

// ApplyCands is Family.Apply with candidate subtrees supplied by the
// caller: for Type 1 the LocateCompact result is cands[0] (best-distance
// first, so the lists agree); for Type 2 cands must be the pattern
// matches in document order, as Doc.Walk would produce them.
func (cf *CompiledFamily) ApplyCands(p *layout.Page, cands []*dom.Node, opt Options) []*ExtractedSection {
	compiledHits.Add(1)
	sc, pooled := acquireApplyScratch()
	if pooled {
		defer applyScratchPool.Put(sc)
	}
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
		recs := cf.partition(p, secStart, end, sc, opt)
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

func (cf *CompiledFamily) applyType2(p *layout.Page, matches []*dom.Node, sc *applyScratch, opt Options) []*ExtractedSection {
	f := cf.f
	var out []*ExtractedSection
	for _, t := range matches {
		opt.Cancel.Check()
		first, last, ok := p.Span(t)
		if !ok {
			continue
		}
		if first == 0 || !attrSetEqual(p.Lines[first-1].Attrs, f.LBMAttrs) {
			continue
		}
		heading := p.Lines[first-1].Text
		recs := cf.partition(p, first, last+1, sc, opt)
		out = append(out, &ExtractedSection{
			Heading:    heading,
			Order:      -1,
			Start:      first,
			End:        last + 1,
			Records:    extractRecords(p, recs),
			FromFamily: true,
		})
	}
	// Matches arrive in document order, so the spans are already sorted by
	// Start; kept for parity with applyType2's explicit sort.
	sortSectionsByStart(out)
	return out
}

func sortSectionsByStart(out []*ExtractedSection) {
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Start < out[j-1].Start; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
}

func (cf *CompiledFamily) partition(p *layout.Page, start, end int, sc *applyScratch, opt Options) []visual.Block {
	if blocks := partitionBySepCompiled(p, start, end, &cf.sep, sc); blocks != nil {
		return blocks
	}
	return mining.MineRecords(p, start, end, opt.Mining)
}
