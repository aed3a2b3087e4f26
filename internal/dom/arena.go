package dom

import (
	"sync"
	"sync/atomic"
)

// Arena is a slab allocator for Node and Attr values: nodes of one parsed
// page are bump-allocated out of fixed-size slabs instead of being
// individually heap-allocated, which removes the dominant per-parse
// allocation cost on the serving hot path (one allocation per slab instead
// of one per node).
//
// Soundness rule: an Arena may only be Released once no live *Node (nor any
// slice or structure reaching one, such as a layout.Page or its Lines) can
// still reference memory allocated from it.  Until Release is called an
// arena-backed tree behaves exactly like a heap-backed one — Release is the
// only operation that reuses memory.  Strings are never arena-allocated, so
// extraction results (which contain only strings and ints) remain valid
// after the page they came from is released.
type Arena struct {
	nodes     []Node   // current node slab; fixed capacity, never reallocated
	nodeSlabs [][]Node // full slabs, retained so Release can zero them
	attrs     []Attr
	attrSlabs [][]Attr
}

const (
	nodeSlabSize = 512
	attrSlabSize = 1024
)

// ArenaStats are cumulative counters describing arena traffic; exposed on
// /metrics and /statusz by the extraction service.
type ArenaStats struct {
	Acquires uint64 `json:"acquires"` // AcquireArena calls
	Reuses   uint64 `json:"reuses"`   // acquires satisfied from the pool
	Releases uint64 `json:"releases"` // arenas returned to the pool
	Nodes    uint64 `json:"nodes"`    // nodes served from slabs
	Slabs    uint64 `json:"slabs"`    // node slabs allocated
}

var arenaStats struct {
	acquires atomic.Uint64
	reuses   atomic.Uint64
	releases atomic.Uint64
	nodes    atomic.Uint64
	slabs    atomic.Uint64
}

// ArenaStatsSnapshot returns the current arena counters.
func ArenaStatsSnapshot() ArenaStats {
	return ArenaStats{
		Acquires: arenaStats.acquires.Load(),
		Reuses:   arenaStats.reuses.Load(),
		Releases: arenaStats.releases.Load(),
		Nodes:    arenaStats.nodes.Load(),
		Slabs:    arenaStats.slabs.Load(),
	}
}

// arenaPool recycles released arenas, keeping their slabs warm across
// requests.
var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// poolHit distinguishes a pooled arena from a fresh one for the Reuses
// counter: a pooled arena still owns at least one slab.
func (a *Arena) poolHit() bool { return a.nodes != nil }

// NewArena returns a fresh, unpooled arena.  Use it for trees whose
// lifetime is unbounded — allocation is still batched, but the memory is
// handed to the garbage collector rather than recycled, so no Release
// discipline is needed.
func NewArena() *Arena { return &Arena{} }

// AcquireArena returns a pooled arena that MUST be Released once the tree
// parsed from it is dead.
func AcquireArena() *Arena {
	a := arenaPool.Get().(*Arena)
	arenaStats.acquires.Add(1)
	if a.poolHit() {
		arenaStats.reuses.Add(1)
	}
	return a
}

// Node returns a zeroed node allocated from the arena.
func (a *Arena) Node() *Node {
	if len(a.nodes) == cap(a.nodes) {
		if a.nodes != nil {
			a.nodeSlabs = append(a.nodeSlabs, a.nodes)
		}
		a.nodes = make([]Node, 0, nodeSlabSize)
		arenaStats.slabs.Add(1)
	}
	a.nodes = a.nodes[:len(a.nodes)+1]
	arenaStats.nodes.Add(1)
	return &a.nodes[len(a.nodes)-1]
}

// Attrs returns a zeroed attribute slice of length n allocated from the
// arena.
func (a *Arena) Attrs(n int) []Attr {
	if n == 0 {
		return nil
	}
	if cap(a.attrs)-len(a.attrs) < n {
		if a.attrs != nil {
			a.attrSlabs = append(a.attrSlabs, a.attrs)
		}
		size := attrSlabSize
		if n > size {
			size = n
		}
		a.attrs = make([]Attr, 0, size)
	}
	s := a.attrs[len(a.attrs) : len(a.attrs)+n : len(a.attrs)+n]
	a.attrs = a.attrs[:len(a.attrs)+n]
	return s
}

// Release zeroes every allocation handed out since the arena was acquired
// and returns the arena to the pool.  See the soundness rule in the type
// documentation; calling Release while any *Node from this arena is still
// reachable is a use-after-free class bug.
func (a *Arena) Release() {
	for _, slab := range a.nodeSlabs {
		resetNodes(slab)
	}
	resetNodes(a.nodes)
	a.nodes = a.nodes[:0]
	a.nodeSlabs = a.nodeSlabs[:0]
	for _, slab := range a.attrSlabs {
		clear(slab)
	}
	clear(a.attrs)
	a.attrs = a.attrs[:0]
	a.attrSlabs = a.attrSlabs[:0]
	arenaStats.releases.Add(1)
	arenaPool.Put(a)
}

// resetNodes zeroes every node in the slab field by field; Node cannot be
// overwritten wholesale because its fingerprint cache is an atomic value.
func resetNodes(slab []Node) {
	for i := range slab {
		n := &slab[i]
		n.Type = DocumentNode
		n.Tag = ""
		n.Data = ""
		n.Attrs = nil
		n.Parent = nil
		n.FirstChild = nil
		n.LastChild = nil
		n.PrevSibling = nil
		n.NextSibling = nil
		n.Mark = 0
		n.SpanStart = 0
		n.SpanEnd = 0
		n.fp.Store(nil)
	}
}
