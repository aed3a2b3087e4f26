package layout

import (
	"bytes"
	"strconv"
	"strings"

	"mse/internal/dom"
)

// isBlockElement reports elements that open a new content line before and
// after their content.
func isBlockElement(tag string) bool {
	// A string switch, not a map set: the compiler lowers it to a
	// length-bucketed compare tree, keeping the per-element render walk
	// free of map hashing.
	switch tag {
	case "address", "article", "aside", "blockquote", "body", "center",
		"dd", "div", "dl", "dt", "fieldset", "footer", "form",
		"h1", "h2", "h3", "h4", "h5", "h6", "header", "li", "main", "nav",
		"ol", "p", "pre", "section", "table", "tbody", "td", "tfoot", "th",
		"thead", "tr", "ul", "caption":
		return true
	}
	return false
}

// isSkippedElement reports elements that render nothing at all.
func isSkippedElement(tag string) bool {
	switch tag {
	case "head", "script", "style", "title", "meta", "link", "base",
		"noscript", "template", "map":
		return true
	}
	return false
}

// fontSizeTable maps <font size=1..7> to pixel sizes.
var fontSizeTable = [8]int{0, 10, 13, 16, 18, 24, 32, 48}

// headingSizes maps h1..h6 to pixel sizes.
var headingSizes = map[string]int{
	"h1": 32, "h2": 24, "h3": 19, "h4": 16, "h5": 13, "h6": 11,
}

// walk traverses the DOM emitting content lines.
func (r *renderer) walk(n *dom.Node, ctx context) {
	r.checkpoint()
	switch n.Type {
	case dom.TextNode:
		t := appendCollapsed(r.sc.collapse[:0], n.Data)
		r.sc.collapse = t[:0]
		if len(bytes.TrimSpace(t)) == 0 {
			return
		}
		r.addBytes(t, n, ctx, kindText)
		return
	case dom.CommentNode, dom.DoctypeNode:
		return
	case dom.DocumentNode:
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			r.walk(c, ctx)
		}
		return
	}

	tag := n.Tag
	if isSkippedElement(tag) {
		return
	}

	switch tag {
	case "br":
		r.flush(true)
		return
	case "hr":
		r.flush(false)
		r.addBytes(nil, n, ctx, kindRule)
		r.flush(false)
		return
	case "img":
		alt, _ := n.Attr("alt")
		t := appendCollapsed(r.sc.collapse[:0], alt)
		r.sc.collapse = t[:0]
		r.addBytes(t, n, ctx, kindImage)
		return
	case "input", "select", "textarea", "button":
		if typ, _ := n.Attr("type"); typ == "hidden" {
			return
		}
		val, _ := n.Attr("value")
		t := appendCollapsed(r.sc.collapse[:0], val)
		r.sc.collapse = t[:0]
		r.addBytes(t, n, ctx, kindForm)
		// select/button may contain text children which also belong to the
		// form line.
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			r.walk(c, ctx)
		}
		return
	}

	// Inherited state updates: presentational tag defaults, then matching
	// stylesheet rules, then the inline style attribute (highest
	// precedence).
	ctx.attr = applyTagAttr(tag, ctx.attr)
	ctx = r.sheet.applyText(n, ctx)
	if style, ok := n.Attr("style"); ok {
		ctx = applyInlineStyle(style, ctx)
	}
	switch tag {
	case "a":
		if href, ok := n.Attr("href"); ok {
			ctx.inLink = true
			ctx.href = href
			ctx.attr.Style |= Underline
			if ctx.attr.Color == defaultAttr().Color {
				ctx.attr.Color = "#0000ee"
			}
		}
	case "font":
		ctx.attr = applyFontTag(n, ctx.attr)
	}

	isBlock := isBlockElement(tag)
	if isBlock {
		r.flush(false)
		if ml := r.sheet.marginLeft(n); ml > 0 {
			ctx.x += ml
			ctx.width -= ml
		}
		ctx = adjustBlockContext(n, ctx)
	}

	if tag == "table" {
		r.walkTable(n, ctx)
	} else {
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			r.walk(c, ctx)
		}
	}

	if isBlock {
		r.flush(false)
	}
}

// adjustBlockContext applies indentation effects of block containers.
func adjustBlockContext(n *dom.Node, ctx context) context {
	switch n.Tag {
	case "ul", "ol", "blockquote", "dd":
		ctx.x += indentStep
		ctx.width -= indentStep
	}
	if v, ok := n.Attr("style"); ok {
		if ml, ok := styleValue(v, "margin-left"); ok {
			if px, err := parsePx(ml); err == nil {
				ctx.x += px
				ctx.width -= px
			}
		}
	}
	if ctx.width < 40 {
		ctx.width = 40
	}
	return ctx
}

// walkTable lays out a table: each row's cells receive x offsets computed
// by dividing the available width across the row's cells (colspan counts
// as extra columns).
func (r *renderer) walkTable(table *dom.Node, ctx context) {
	for section := table.FirstChild; section != nil; section = section.NextSibling {
		switch section.Tag {
		case "thead", "tbody", "tfoot":
			for row := section.FirstChild; row != nil; row = row.NextSibling {
				if row.Tag == "tr" {
					r.walkRow(row, ctx)
				} else {
					r.walk(row, ctx)
				}
			}
		case "tr":
			r.walkRow(section, ctx)
		case "caption", "colgroup", "col":
			if section.Tag == "caption" {
				r.walk(section, ctx)
			}
		default:
			r.walk(section, ctx)
		}
	}
}

func (r *renderer) walkRow(row *dom.Node, ctx context) {
	// Cells accumulate in the shared scratch buffers.  Nested tables re-enter
	// walkRow, so this frame only owns sc.cellBuf[base:] and indexes into it
	// (a nested row may grow — and reallocate — the buffer underneath us).
	sc := r.sc
	base := len(sc.cellBuf)
	total := 0
	for c := row.FirstChild; c != nil; c = c.NextSibling {
		if c.Tag == "td" || c.Tag == "th" {
			span := 1
			if v, ok := c.Attr("colspan"); ok {
				if s, err := strconv.Atoi(strings.TrimSpace(v)); err == nil && s > 1 {
					span = s
				}
			}
			sc.cellBuf = append(sc.cellBuf, c)
			sc.spanBuf = append(sc.spanBuf, span)
			total += span
		}
	}
	if total == 0 {
		// A row without cells may still carry stray content.
		for c := row.FirstChild; c != nil; c = c.NextSibling {
			r.walk(c, ctx)
		}
		return
	}
	colWidth := ctx.width / total
	if colWidth < 20 {
		colWidth = 20
	}
	offset := 0
	for i := base; i < len(sc.cellBuf) && i < len(sc.spanBuf); i++ {
		cell, span := sc.cellBuf[i], sc.spanBuf[i]
		cctx := ctx
		cctx.x = ctx.x + offset*colWidth
		cctx.width = span * colWidth
		if cell.Tag == "th" {
			cctx.attr.Style |= Bold
		}
		r.flush(false)
		for c := cell.FirstChild; c != nil; c = c.NextSibling {
			r.walk(c, cctx)
		}
		r.flush(false)
		offset += span
	}
	sc.cellBuf = sc.cellBuf[:base]
	sc.spanBuf = sc.spanBuf[:base]
}

// applyTagAttr updates text attributes for presentational tags.
func applyTagAttr(tag string, a TextAttr) TextAttr {
	switch tag {
	case "b", "strong":
		a.Style |= Bold
	case "i", "em", "cite", "var":
		a.Style |= Italic
	case "u", "ins":
		a.Style |= Underline
	case "small":
		a.Size -= 3
	case "big":
		a.Size += 3
	case "code", "tt", "pre", "kbd", "samp":
		a.Font = "monospace"
	case "h1", "h2", "h3", "h4", "h5", "h6":
		a.Size = headingSizes[tag]
		a.Style |= Bold
	}
	if a.Size < 6 {
		a.Size = 6
	}
	return a
}

// applyFontTag handles <font face= size= color=>.
func applyFontTag(n *dom.Node, a TextAttr) TextAttr {
	if face, ok := n.Attr("face"); ok && face != "" {
		a.Font = strings.ToLower(strings.TrimSpace(strings.Split(face, ",")[0]))
	}
	if col, ok := n.Attr("color"); ok && col != "" {
		a.Color = normalizeColor(col)
	}
	if sz, ok := n.Attr("size"); ok && sz != "" {
		sz = strings.TrimSpace(sz)
		rel := 0
		switch {
		case strings.HasPrefix(sz, "+"):
			rel = 1
			sz = sz[1:]
		case strings.HasPrefix(sz, "-"):
			rel = -1
			sz = sz[1:]
		}
		if v, err := strconv.Atoi(sz); err == nil {
			idx := v
			if rel != 0 {
				idx = 3 + rel*v // default font size index is 3
			}
			if idx < 1 {
				idx = 1
			}
			if idx > 7 {
				idx = 7
			}
			a.Size = fontSizeTable[idx]
		}
	}
	return a
}

// applyInlineStyle parses the CSS properties that affect text attributes
// and indentation out of a style="" attribute.
func applyInlineStyle(style string, ctx context) context {
	if v, ok := styleValue(style, "color"); ok {
		ctx.attr.Color = normalizeColor(v)
	}
	if v, ok := styleValue(style, "font-family"); ok {
		ctx.attr.Font = strings.ToLower(strings.TrimSpace(strings.Split(v, ",")[0]))
	}
	if v, ok := styleValue(style, "font-size"); ok {
		if px, err := parsePx(v); err == nil && px > 0 {
			ctx.attr.Size = px
		}
	}
	if v, ok := styleValue(style, "font-weight"); ok {
		switch strings.TrimSpace(v) {
		case "bold", "bolder", "600", "700", "800", "900":
			ctx.attr.Style |= Bold
		case "normal", "400":
			ctx.attr.Style &^= Bold
		}
	}
	if v, ok := styleValue(style, "font-style"); ok {
		switch strings.TrimSpace(v) {
		case "italic", "oblique":
			ctx.attr.Style |= Italic
		case "normal":
			ctx.attr.Style &^= Italic
		}
	}
	if v, ok := styleValue(style, "text-decoration"); ok {
		if strings.Contains(v, "underline") {
			ctx.attr.Style |= Underline
		} else if strings.Contains(v, "none") {
			ctx.attr.Style &^= Underline
		}
	}
	return ctx
}

// styleValue extracts the value of property prop from a CSS declaration
// list.
func styleValue(style, prop string) (string, bool) {
	for _, decl := range strings.Split(style, ";") {
		k, v, ok := strings.Cut(decl, ":")
		if !ok {
			continue
		}
		if strings.EqualFold(strings.TrimSpace(k), prop) {
			return strings.TrimSpace(v), true
		}
	}
	return "", false
}

func parsePx(v string) (int, error) {
	v = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "px"))
	return strconv.Atoi(v)
}

// normalizeColor lower-cases color names and expands #abc to #aabbcc.
func normalizeColor(c string) string {
	c = strings.ToLower(strings.TrimSpace(c))
	if len(c) == 4 && c[0] == '#' {
		return "#" + strings.Repeat(string(c[1]), 2) +
			strings.Repeat(string(c[2]), 2) + strings.Repeat(string(c[3]), 2)
	}
	if named, ok := cssNamedColors[c]; ok {
		return named
	}
	return c
}

var cssNamedColors = map[string]string{
	"black": "#000000", "white": "#ffffff", "red": "#ff0000",
	"green": "#008000", "blue": "#0000ff", "gray": "#808080",
	"grey": "#808080", "silver": "#c0c0c0", "maroon": "#800000",
	"navy": "#000080", "olive": "#808000", "purple": "#800080",
	"teal": "#008080", "yellow": "#ffff00", "orange": "#ffa500",
	"fuchsia": "#ff00ff", "aqua": "#00ffff", "lime": "#00ff00",
	"darkred": "#8b0000", "darkblue": "#00008b", "darkgreen": "#006400",
	"brown": "#a52a2a", "crimson": "#dc143c",
}
