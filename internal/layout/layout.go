// Package layout is the rendering substrate of the MSE reproduction.  The
// paper (following ViNTs [29]) renders result pages in a browser and reads
// visual features off the rendered page: content lines, their left x
// coordinates (position codes), their appearance types (type codes) and
// their text attributes (font, size, style, color).  This package replaces
// the browser with a deterministic box-model layout simulator:
//
//   - block-level elements (div, p, tr, td, li, headings, …) open new
//     content lines; inline elements (a, b, font, span, img, …) append to
//     the current line;
//   - tables divide the available width across columns, lists and
//     blockquotes indent by fixed amounts, so aligned records receive equal
//     position codes;
//   - presentational tags (<b>, <i>, <font>, <h1>…) and inline style=""
//     attributes cascade into text attributes.
//
// The MSE algorithms consume only the *relative* visual regularity of a
// page (records aligned at the same x, headers in a distinct font), which
// this simulator reproduces; absolute pixel fidelity is irrelevant.
package layout

import (
	"sync"

	"mse/internal/cancel"
	"mse/internal/dom"
)

// LineType is the type code of a content line.  ViNTs defines eight basic
// content-line appearance classes; these are the ones used here.
type LineType int

const (
	// TextLine contains plain text only.
	TextLine LineType = iota
	// LinkLine contains anchor text only.
	LinkLine
	// LinkTextLine mixes anchor text and plain text.
	LinkTextLine
	// ImageLine contains images only.
	ImageLine
	// ImageTextLine mixes images with text or links.
	ImageTextLine
	// FormLine contains form controls.
	FormLine
	// RuleLine is a horizontal rule (<hr>).
	RuleLine
	// BlankLine is an empty line produced by consecutive explicit breaks.
	BlankLine

	numLineTypes = int(BlankLine) + 1
)

// String returns the conventional name of the line type.
func (t LineType) String() string {
	switch t {
	case TextLine:
		return "text"
	case LinkLine:
		return "link"
	case LinkTextLine:
		return "link-text"
	case ImageLine:
		return "image"
	case ImageTextLine:
		return "image-text"
	case FormLine:
		return "form"
	case RuleLine:
		return "rule"
	case BlankLine:
		return "blank"
	}
	return "unknown"
}

// NumLineTypes is the number of distinct content-line types.
func NumLineTypes() int { return numLineTypes }

// StyleFlags is a bit set of font styles.
type StyleFlags uint8

// Font style bits.
const (
	Bold StyleFlags = 1 << iota
	Italic
	Underline
)

// TextAttr is the quaternion ⟨f, w, s, c⟩ of Section 4.2: font family,
// size, style and color of a piece of text.
type TextAttr struct {
	Font  string
	Size  int
	Style StyleFlags
	Color string
}

// Line is a content line of a rendered page: a group of characters that
// form one horizontal line, with its visual features and the DOM leaves
// that produced it.
type Line struct {
	// Num is the index of the line within Page.Lines (the paper's line
	// number, 0-based here).
	Num int
	// Text is the visible text of the line (link texts included, image alt
	// texts included).
	Text string
	// X is the position code: the left-most x coordinate on the rendered
	// page.
	X int
	// Type is the type code.
	Type LineType
	// Attrs is the line text attribute la: the set of distinct text
	// attributes appearing in the line, in order of first appearance.
	Attrs []TextAttr
	// Leaves are the DOM leaf nodes (text, img, input, hr, …) that
	// contribute to the line, in document order.
	Leaves []*dom.Node
	// Path is the tag path of the first contributing leaf; CPath is its
	// compact form.  They locate the line within the page's DOM tree.
	Path  dom.TagPath
	CPath dom.CompactPath
	// Links holds the href values of anchors contributing to the line.
	Links []string
}

// HasAttr reports whether the line contains text with attribute a.
func (l *Line) HasAttr(a TextAttr) bool {
	for _, x := range l.Attrs {
		if x == a {
			return true
		}
	}
	return false
}

// Page is a rendered result page: its DOM plus the ordered content lines,
// with an index from DOM nodes to the line ranges they cover.
type Page struct {
	Doc   *dom.Node
	Lines []Line

	// The node→line-span index lives on the DOM nodes themselves
	// (dom.Node.SpanStart/SpanEnd), written by mergeSpan during the render
	// walk; Span and computeForest read it back.  Node-resident spans keep
	// the hot path free of map hashing and of a per-render map allocation.

	// forests memoizes Forest results by line range: record and section
	// comparisons query the same ranges over and over (every pairwise
	// record distance re-derives both forests), and the DOM is immutable
	// once rendered, so the walk only ever needs to happen once per range.
	// Guarded by fmu; callers treat the returned slice as read-only.
	fmu     sync.Mutex
	forests map[[2]int][]*dom.Node

	// scratch backs Lines, span, forests and the per-line slices; pooled
	// marks pages whose scratch returns to the render pool on Release.
	scratch *renderScratch
	pooled  bool
}

// Span returns the inclusive [first, last] line range covered by n and
// whether n renders any content at all.
func (p *Page) Span(n *dom.Node) (first, last int, ok bool) {
	if n.SpanEnd == 0 {
		return 0, 0, false
	}
	return int(n.SpanStart), int(n.SpanEnd) - 1, true
}

// Forest returns the minimal tag forest covering content lines
// [start, end): the list of highest DOM nodes whose rendered content lies
// entirely within the range, in document order.  This is the "tag forest
// underneath" a record or section from Section 4.1.
func (p *Page) Forest(start, end int) []*dom.Node {
	if start >= end {
		return nil
	}
	key := [2]int{start, end}
	p.fmu.Lock()
	out, ok := p.forests[key]
	p.fmu.Unlock()
	if ok {
		return out
	}
	out = p.computeForest(start, end)
	p.fmu.Lock()
	if p.forests == nil {
		p.forests = make(map[[2]int][]*dom.Node)
	}
	p.forests[key] = out
	p.fmu.Unlock()
	return out
}

func (p *Page) computeForest(start, end int) []*dom.Node {
	var out []*dom.Node
	p.Doc.Walk(func(n *dom.Node) bool {
		if n.SpanEnd == 0 {
			return true // no rendered content below; keep descending
		}
		s := [2]int{int(n.SpanStart), int(n.SpanEnd) - 1}
		if s[0] >= start && s[1] < end {
			out = append(out, n)
			return false // whole subtree inside: this is a forest root
		}
		if s[1] < start || s[0] >= end {
			return false // disjoint: skip subtree
		}
		return true // partial overlap: descend
	})
	return out
}

// MinimalSubtree returns the deepest single DOM node covering all the
// lines in [start, end), or nil when the range is empty.
func (p *Page) MinimalSubtree(start, end int) *dom.Node {
	var nodes []*dom.Node
	for i := start; i < end && i < len(p.Lines); i++ {
		nodes = append(nodes, p.Lines[i].Leaves...)
	}
	return dom.MinimalSubtree(nodes)
}

// SectionRoot returns the subtree node that stands for a section covering
// [start, end): the single highest node whose rendered content is exactly
// the range when one exists, and the deepest common ancestor otherwise.
// Unlike MinimalSubtree, the result does not sink into the record when a
// section happens to hold a single record — the wrapper pref must sit at
// the same tree level regardless of how many records a query returned.
func (p *Page) SectionRoot(start, end int) *dom.Node {
	f := p.Forest(start, end)
	if len(f) == 1 {
		return f[0]
	}
	return p.MinimalSubtree(start, end)
}

// Render lays out a parsed page and extracts its content lines in preorder
// (document) order, implementing Step 1 of the MSE algorithm.  The page's
// allocations are batched through a fresh scratch that is reclaimed by the
// garbage collector along with the page.
func Render(doc *dom.Node) *Page {
	return renderWith(doc, new(renderScratch), false, nil, true)
}

// RenderPooledCancel is Render with the scratch drawn from a process-wide
// pool, polling a cancellation token every checkpointStride nodes of the
// DOM walk so rendering a pathological page aborts promptly when the
// caller's context is canceled (the walk panics with cancel.Signal; the
// boundary that created the token recovers it).  The caller must call
// Page.Release once it no longer references the page or anything
// reachable from it.  When the walk unwinds — through cancellation or any
// other panic — the pooled scratch is recycled before the panic
// continues, so an aborted render can never leak a scratch out of the
// pool.
func RenderPooledCancel(doc *dom.Node, tok *cancel.Token) *Page {
	return renderWith(doc, acquireScratch(), true, tok, true)
}

// RenderPooledNoPaths is RenderPooledCancel without the Path and CPath of
// each line.  Only wrapper induction reads tag paths; wrapper application
// locates its subtrees on the DOM, so the extraction render skips
// building them.
func RenderPooledNoPaths(doc *dom.Node, tok *cancel.Token) *Page {
	return renderWith(doc, acquireScratch(), true, tok, false)
}

func renderWith(doc *dom.Node, sc *renderScratch, pooled bool, tok *cancel.Token, paths bool) *Page {
	sc.ensure(doc.Size())
	page := &Page{
		Doc:     doc,
		Lines:   sc.lines[:0],
		forests: sc.forests,
		scratch: sc,
		pooled:  pooled,
	}
	if pooled {
		// A panic mid-walk (a cancellation checkpoint firing, or a renderer
		// bug) unwinds before the page can be returned, so nothing can ever
		// reference the scratch again: recycle it on the way out instead of
		// leaking it to the garbage collector.
		defer func() {
			if r := recover(); r != nil {
				page.Release()
				panic(r)
			}
		}()
	}
	// An already-fired token aborts before any work: the walk's stride-256
	// checkpoints may never trigger on a small page, but a dead context
	// must abort the render regardless of page size.  Checked only after
	// the recovery defer above is armed, so the pooled scratch cannot leak.
	tok.Check()
	r := &renderer{
		page:  page,
		sheet: collectStylesheet(doc),
		sc:    sc,
		tok:   tok,
		paths: paths,
	}
	ctx := context{
		x:     bodyMarginX,
		width: pageWidth - 2*bodyMarginX,
		attr:  defaultAttr(),
	}
	r.walk(doc, ctx)
	r.flush(false)
	// Node spans are built incrementally in addBytes — see mergeSpan.
	return page
}

// Layout constants of the simulated viewport.
const (
	pageWidth   = 800
	bodyMarginX = 8
	indentStep  = 40 // ul/ol/blockquote/dd indentation

	// checkpointStride is how many DOM nodes the render walk visits between
	// cancellation polls: coarse enough that the poll cost vanishes, fine
	// enough that even a million-node page notices cancellation within a
	// few microseconds of work.
	checkpointStride = 256
)

// checkpoint polls the cancellation token every checkpointStride visited
// nodes; without a token it is two compares.
func (r *renderer) checkpoint() {
	if r.tok == nil {
		return
	}
	if r.steps++; r.steps >= checkpointStride {
		r.steps = 0
		r.tok.Check()
	}
}

func defaultAttr() TextAttr {
	return TextAttr{Font: "times", Size: 16, Color: "#000000"}
}

// context carries the inherited layout state during the DOM walk.
type context struct {
	x      int
	width  int
	attr   TextAttr
	inLink bool
	href   string
}

// renderer accumulates content lines.  The per-line accumulation buffers
// live in the render scratch and are reused line after line; flush copies
// their contents into exact-size chunks cut from the scratch arenas.
type renderer struct {
	page  *Page
	sheet *stylesheet
	sc    *renderScratch

	// tok, when non-nil, is polled every checkpointStride visited nodes;
	// steps is the visit counter backing that stride.
	tok   *cancel.Token
	steps int

	// paths selects whether lines carry Path and CPath.
	paths bool

	lineX   int
	started bool
	hasText bool // plain (non-link) text present
	hasLink bool
	hasImg  bool
	hasForm bool
	isRule  bool

	lastFlushWasBreak bool
}

// flush emits the accumulated line, if any.  explicitBreak marks flushes
// caused by <br>, so that a second consecutive <br> yields a BlankLine.
func (r *renderer) flush(explicitBreak bool) {
	if !r.started {
		if explicitBreak {
			if r.lastFlushWasBreak {
				// Two explicit breaks in a row: a visible blank line.
				r.emit(Line{Text: "", X: r.lineX, Type: BlankLine})
			}
			r.lastFlushWasBreak = true
		}
		return
	}
	sc := r.sc
	sc.norm = appendNormalized(sc.norm[:0], sc.text)
	line := r.emitEmpty()
	line.Text = string(sc.norm)
	line.X = r.lineX
	line.Type = r.lineType()
	line.Attrs = sc.attrs.allocCopy(sc.attrBuf)
	line.Leaves = sc.leaves.allocCopy(sc.leafBuf)
	line.Links = sc.links.allocCopy(sc.linkBuf)
	if r.paths && len(line.Leaves) > 0 {
		leaf := line.Leaves[0]
		line.Path = dom.AppendPath(dom.TagPath(sc.paths.alloc(dom.PathLen(leaf)))[:0], leaf)
		line.CPath = line.Path.AppendCompact(dom.CompactPath(sc.cpaths.alloc(line.Path.CompactLen()))[:0])
	}
	sc.text = sc.text[:0]
	sc.leafBuf = sc.leafBuf[:0]
	sc.attrBuf = sc.attrBuf[:0]
	sc.linkBuf = sc.linkBuf[:0]
	r.started = false
	r.hasText, r.hasLink, r.hasImg, r.hasForm, r.isRule = false, false, false, false, false
	r.lastFlushWasBreak = explicitBreak
}

func (r *renderer) emit(l Line) {
	l.Num = len(r.page.Lines)
	r.page.Lines = append(r.page.Lines, l)
}

// emitEmpty appends a zero line with its Num set and returns a pointer for
// the caller to fill in place, sparing flush a full Line struct copy per
// content line.  The pointer is only valid until the next append.
func (r *renderer) emitEmpty() *Line {
	r.page.Lines = append(r.page.Lines, Line{Num: len(r.page.Lines)})
	return &r.page.Lines[len(r.page.Lines)-1]
}

func (r *renderer) lineType() LineType {
	switch {
	case r.isRule:
		return RuleLine
	case r.hasForm:
		return FormLine
	case r.hasImg && (r.hasText || r.hasLink):
		return ImageTextLine
	case r.hasImg:
		return ImageLine
	case r.hasLink && r.hasText:
		return LinkTextLine
	case r.hasLink:
		return LinkLine
	default:
		return TextLine
	}
}

// addBytes appends inline content to the current line.  text points into
// the scratch collapse buffer (or is nil) and is copied, not retained.
func (r *renderer) addBytes(text []byte, leaf *dom.Node, ctx context, kind contentKind) {
	sc := r.sc
	if !r.started {
		r.started = true
		r.lineX = ctx.x
	}
	if len(text) > 0 {
		if len(sc.text) > 0 && !endsWithSpace(sc.text) && !startsWithSpace(text) {
			sc.text = append(sc.text, ' ')
		}
		sc.text = append(sc.text, text...)
	}
	if leaf != nil {
		sc.leafBuf = append(sc.leafBuf, leaf)
		r.mergeSpan(leaf)
	}
	switch kind {
	case kindText:
		if ctx.inLink {
			r.hasLink = true
			if ctx.href != "" {
				r.addLink(ctx.href)
			}
		} else {
			r.hasText = true
		}
		if !containsAttr(sc.attrBuf, ctx.attr) {
			sc.attrBuf = append(sc.attrBuf, ctx.attr)
		}
	case kindImage:
		r.hasImg = true
	case kindForm:
		r.hasForm = true
	case kindRule:
		r.isRule = true
	}
}

// mergeSpan extends the node-span index to cover leaf on the line being
// accumulated.  That line's final index is exactly len(page.Lines): blank
// lines are only emitted between flushed lines, never under one that has
// started.  Lines arrive in increasing order, so extending is setting
// SpanEnd; the walk stops at the first ancestor already extended to this
// line, whose own ancestors were extended by the same earlier walk —
// amortized O(1) per leaf instead of O(depth).  (Re-rendering the same
// tree converges to the identical state: a stale SpanEnd equals the final
// value, so an early break just leaves it correct.)
func (r *renderer) mergeSpan(leaf *dom.Node) {
	end := int32(len(r.page.Lines)) + 1
	for n := leaf; n != nil; n = n.Parent {
		if n.SpanEnd == 0 {
			n.SpanStart, n.SpanEnd = end-1, end
			continue
		}
		if n.SpanEnd == end {
			break
		}
		n.SpanEnd = end
	}
}

func (r *renderer) addLink(href string) {
	for _, l := range r.sc.linkBuf {
		if l == href {
			return
		}
	}
	r.sc.linkBuf = append(r.sc.linkBuf, href)
}

type contentKind int

const (
	kindText contentKind = iota
	kindImage
	kindForm
	kindRule
)

func containsAttr(list []TextAttr, a TextAttr) bool {
	for _, x := range list {
		if x == a {
			return true
		}
	}
	return false
}

func startsWithSpace(s []byte) bool {
	return len(s) > 0 && (s[0] == ' ' || s[0] == '\t' || s[0] == '\n')
}

func endsWithSpace(s []byte) bool {
	return len(s) > 0 && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t' || s[len(s)-1] == '\n')
}
