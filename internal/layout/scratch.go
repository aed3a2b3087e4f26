package layout

import (
	"sync"
	"sync/atomic"
	"unicode"
	"unicode/utf8"

	"mse/internal/dom"
)

// This file holds the allocation machinery of the renderer.  A rendered
// Page owns thousands of tiny slices — per-line leaves, text attributes,
// links, tag paths — which used to be individually heap-allocated.  They
// are now cut out of chunk arenas owned by a renderScratch, so a render
// performs O(lines) work with O(chunks) allocations, and a scratch can be
// recycled through a sync.Pool once its page is dead (see Page.Release and
// the soundness rule on dom.Arena).

const chunkSize = 1024

// chunk is a bump allocator handing out exact-capacity sub-slices of
// fixed-size slabs.  Chunks are full slices (cap == len), so appending to
// one can never scribble over a neighbour.
type chunk[T any] struct {
	cur  []T
	used int
}

func (c *chunk[T]) alloc(n int) []T {
	if n == 0 {
		return nil
	}
	if cap(c.cur)-c.used < n {
		size := chunkSize
		if n > size {
			size = n
		}
		// The previous slab stays alive through the page's lines and is
		// collected with them; only the current slab is retained for reuse.
		c.cur = make([]T, size)
		c.used = 0
	}
	s := c.cur[c.used : c.used+n : c.used+n]
	c.used += n
	return s
}

// allocCopy returns an arena-backed copy of src (nil for an empty src,
// matching the legacy per-line nil slices).
func (c *chunk[T]) allocCopy(src []T) []T {
	if len(src) == 0 {
		return nil
	}
	dst := c.alloc(len(src))
	copy(dst, src)
	return dst
}

// reset zeroes the retained slab's used prefix (so pooled memory does not
// pin dead pages — entries past the high-water mark were zeroed by the
// previous reset and never rewritten) and rewinds the allocator.
func (c *chunk[T]) reset() {
	clear(c.cur[:c.used])
	c.used = 0
}

// renderScratch is the reusable allocation state behind one rendered Page:
// the Lines backing array, the span/forest maps, the chunk arenas the
// per-line slices are cut from, and the transient per-line accumulation
// buffers.
type renderScratch struct {
	lines   []Line
	forests map[[2]int][]*dom.Node

	leaves chunk[*dom.Node]
	attrs  chunk[TextAttr]
	links  chunk[string]
	paths  chunk[dom.PathNode]
	cpaths chunk[dom.CStep]

	// Per-line accumulation buffers, reused line after line.
	text     []byte
	norm     []byte
	collapse []byte
	leafBuf  []*dom.Node
	attrBuf  []TextAttr
	linkBuf  []string
	cellBuf  []*dom.Node
	spanBuf  []int
}

// ensure pre-sizes the scratch for a document of the given node count, so
// Render does O(lines) appends instead of O(allocs-per-line) growth.
func (sc *renderScratch) ensure(nodeCount int) {
	if est := nodeCount/4 + 8; cap(sc.lines) < est {
		sc.lines = make([]Line, 0, est)
	}
	if sc.forests == nil {
		sc.forests = make(map[[2]int][]*dom.Node, 16)
	}
}

// ScratchStats are cumulative render-scratch pool counters; exposed on
// /metrics and /statusz by the extraction service.
type ScratchStats struct {
	Acquires uint64 `json:"acquires"` // pooled renders
	Reuses   uint64 `json:"reuses"`   // acquires satisfied from the pool
	Releases uint64 `json:"releases"` // pages returned to the pool
}

var scratchStats struct {
	acquires atomic.Uint64
	reuses   atomic.Uint64
	releases atomic.Uint64
}

// ScratchStatsSnapshot returns the current render-scratch counters.
func ScratchStatsSnapshot() ScratchStats {
	return ScratchStats{
		Acquires: scratchStats.acquires.Load(),
		Reuses:   scratchStats.reuses.Load(),
		Releases: scratchStats.releases.Load(),
	}
}

var scratchPool = sync.Pool{New: func() any { return new(renderScratch) }}

func acquireScratch() *renderScratch {
	sc := scratchPool.Get().(*renderScratch)
	scratchStats.acquires.Add(1)
	if sc.forests != nil {
		scratchStats.reuses.Add(1)
	}
	return sc
}

// Release recycles the page's scratch (lines backing, maps and chunk
// arenas) into the render pool.  It must only be called once no Line,
// span or forest obtained from the page is referenced anymore; pages not
// created by a pooled render ignore the call.  The page is unusable
// afterwards.
func (p *Page) Release() {
	sc := p.scratch
	if sc == nil || !p.pooled {
		return
	}
	p.scratch = nil
	clear(p.Lines)
	sc.lines = p.Lines[:0]
	clear(sc.forests)
	sc.leaves.reset()
	sc.attrs.reset()
	sc.links.reset()
	sc.paths.reset()
	sc.cpaths.reset()
	sc.text = sc.text[:0]
	sc.norm = sc.norm[:0]
	sc.collapse = sc.collapse[:0]
	clear(sc.leafBuf)
	sc.leafBuf = sc.leafBuf[:0]
	clear(sc.attrBuf)
	sc.attrBuf = sc.attrBuf[:0]
	clear(sc.linkBuf)
	sc.linkBuf = sc.linkBuf[:0]
	clear(sc.cellBuf)
	sc.cellBuf = sc.cellBuf[:0]
	sc.spanBuf = sc.spanBuf[:0]
	p.Lines = nil
	p.forests = nil
	scratchStats.releases.Add(1)
	scratchPool.Put(sc)
}

// appendCollapsed appends s to dst with runs of whitespace (including
// non-breaking spaces) folded into single spaces, reproducing the legacy
// collapseSpace string byte for byte (invalid UTF-8 becomes U+FFFD, as
// WriteRune did).
func appendCollapsed(dst []byte, s string) []byte {
	base := len(dst)
	space := false
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			// ASCII fast path: no rune decode, no AppendRune call.
			if c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' {
				space = true
				i++
				continue
			}
			if space && len(dst) > base {
				dst = append(dst, ' ')
			}
			space = false
			dst = append(dst, c)
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(s[i:])
		i += w
		if r == 0xA0 {
			space = true
			continue
		}
		if space && len(dst) > base {
			dst = append(dst, ' ')
		}
		space = false
		dst = utf8.AppendRune(dst, r)
	}
	return dst
}

// asciiSpace marks the ASCII bytes unicode.IsSpace reports as whitespace.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// appendNormalized appends src to dst with leading/trailing whitespace
// dropped and inner runs collapsed to single spaces — byte-identical to
// strings.Join(strings.Fields(string(src)), " ") without the two
// intermediate allocations per line.
func appendNormalized(dst, src []byte) []byte {
	i := 0
	for i < len(src) {
		// Skip whitespace; ASCII bytes take the table, multi-byte runes
		// the full unicode.IsSpace check (identical for ASCII input).
		if c := src[i]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				i++
				continue
			}
		} else {
			r, w := utf8.DecodeRune(src[i:])
			if unicode.IsSpace(r) {
				i += w
				continue
			}
		}
		start := i
		for i < len(src) {
			if c := src[i]; c < utf8.RuneSelf {
				if asciiSpace[c] {
					break
				}
				i++
				continue
			}
			r, w := utf8.DecodeRune(src[i:])
			if unicode.IsSpace(r) {
				break
			}
			i += w
		}
		if len(dst) > 0 {
			dst = append(dst, ' ')
		}
		dst = append(dst, src[start:i]...)
	}
	return dst
}
