// Package prune is the candidate locator of the compiled extraction
// path.  Before a leased page is rendered, one DFS over the raw DOM
// locates every subtree a compiled wrapper or family could match — the
// union of the engine's "touch sets" — and hands each compiled wrapper its
// candidate list, so wrapper application never re-walks the tree.
//
// Soundness: the DFS reproduces dom.LocateCompactAll per target — the
// same incremental compact-path stack, the same candidate predicate, the
// same (distance, document order) ranking — so the per-target candidate
// lists handed to compiled wrappers are element-for-element the lists the
// interpreted path computes (dom.LocatePattern for Type-2 family
// patterns); prune_test.go checks this over the synthetic test bed and
// fuzzes it over arbitrary HTML.  Subtrees are skipped only when no
// target's tag-path prefix still matches (a prefix mismatch can never
// recover at greater depth, and every candidate needs a full prefix
// match), so a skipped subtree provably contains no candidate of any
// target.
package prune

import (
	"sync"
	"sync/atomic"

	"mse/internal/cancel"
	"mse/internal/dom"
)

// Spec describes one DOM target of a compiled engine wrapper.
type Spec struct {
	// Path is the compact tag path of the target: a wrapper or Type-1
	// family pref, or a Type-2 family pattern (pref + spref).
	Path dom.CompactPath
	// Wildcard selects the matching mode.  Negative: tolerant locate with
	// LocateCompactAll semantics — tags must match, sibling counts are
	// free, candidates ranked by (path distance, document order).
	// Non-negative: a Type-2 family pattern — compact paths must equal
	// Path step for step, tags everywhere and sibling counts at every
	// index except Wildcard (the family's free junction); candidates kept
	// in document order, exactly as dom.LocatePattern produces them.
	Wildcard int
}

// Stats are cumulative pruning counters; exposed on /metrics by the
// extraction service.
type Stats struct {
	// Runs counts pruning passes (one per compiled extraction).
	Runs uint64 `json:"runs"`
	// NodesSkipped counts subtree roots the matching DFS did not descend
	// into — regions proven to contain no wrapper target.
	NodesSkipped uint64 `json:"nodes_skipped"`
	// Acquires / Reuses / Releases are matcher pool counters.
	Acquires uint64 `json:"acquires"`
	Reuses   uint64 `json:"reuses"`
	Releases uint64 `json:"releases"`
}

var stats struct {
	runs         atomic.Uint64
	nodesSkipped atomic.Uint64
	acquires     atomic.Uint64
	reuses       atomic.Uint64
	releases     atomic.Uint64
}

// StatsSnapshot returns the current pruning counters.
func StatsSnapshot() Stats {
	return Stats{
		Runs:         stats.runs.Load(),
		NodesSkipped: stats.nodesSkipped.Load(),
		Acquires:     stats.acquires.Load(),
		Reuses:       stats.reuses.Load(),
		Releases:     stats.releases.Load(),
	}
}

// Result is the outcome of one pruning pass: the per-spec candidate
// lists.  Release returns the pooled matcher state; the candidate slices
// become invalid afterwards.
type Result struct {
	m *matcher
}

// Cands returns the candidate nodes of spec i: distance-ranked for
// tolerant specs, document order for pattern specs.
func (r *Result) Cands(i int) []*dom.Node { return r.m.cands[i] }

// Release recycles the matcher.  Safe to call once; the Result must not
// be used afterwards.
func (r *Result) Release() {
	if r.m == nil {
		return
	}
	m := r.m
	r.m = nil
	m.release()
}

// specState is the per-spec incremental matching state.
type specState struct {
	// okDepth is the length of the longest stack prefix whose tags match
	// the spec's path, exactly as in dom.LocateCompactAll.
	okDepth int
}

// cand is a tolerant-spec candidate pending the final (distance, docN)
// insertion sort.
type cand struct {
	n    *dom.Node
	d    float64
	docN int
}

type cstep struct {
	tag     string
	sBefore int
}

// matcher is the pooled DFS state.
type matcher struct {
	specs  []Spec
	states []specState
	cands  [][]*dom.Node
	ranked [][]cand // scratch for tolerant specs, indexed like cands
	stack  []cstep

	docN    int
	skipped uint64

	tok   *cancel.Token
	steps int
}

var matcherPool = sync.Pool{New: func() any { return new(matcher) }}

// checkpointStride mirrors the renderer's cancellation poll cadence.
const checkpointStride = 256

// Run locates every spec's candidates in one DFS over doc and returns the
// per-spec lists.  tok, when non-nil, is polled every few hundred nodes;
// cancellation unwinds with cancel.Signal after returning the pooled
// state, exactly like the render walk.
func Run(doc *dom.Node, specs []Spec, tok *cancel.Token) *Result {
	m := matcherPool.Get().(*matcher)
	stats.acquires.Add(1)
	if m.stack != nil {
		stats.reuses.Add(1)
	}
	defer func() {
		if r := recover(); r != nil {
			m.release()
			panic(r)
		}
	}()
	m.reset(specs, tok)
	tok.Check()
	m.visit(doc, 0)
	m.finish()
	stats.runs.Add(1)
	stats.nodesSkipped.Add(m.skipped)
	return &Result{m: m}
}

func (m *matcher) reset(specs []Spec, tok *cancel.Token) {
	m.specs = specs
	if cap(m.states) < len(specs) {
		m.states = make([]specState, len(specs))
		m.cands = make([][]*dom.Node, len(specs))
		m.ranked = make([][]cand, len(specs))
	}
	m.states = m.states[:len(specs)]
	m.cands = m.cands[:len(specs)]
	m.ranked = m.ranked[:len(specs)]
	for i := range specs {
		m.states[i] = specState{}
		m.cands[i] = m.cands[i][:0]
		m.ranked[i] = m.ranked[i][:0]
	}
	if m.stack == nil {
		m.stack = make([]cstep, 0, 32)
	}
	m.stack = m.stack[:0]
	m.docN = 0
	m.skipped = 0
	m.tok = tok
	m.steps = 0
}

func (m *matcher) release() {
	for i := range m.cands {
		clear(m.cands[i])
		m.cands[i] = m.cands[i][:0]
		clear(m.ranked[i])
		m.ranked[i] = m.ranked[i][:0]
	}
	m.specs = nil
	m.stack = m.stack[:0]
	m.tok = nil
	stats.releases.Add(1)
	matcherPool.Put(m)
}

func (m *matcher) checkpoint() {
	if m.tok == nil {
		return
	}
	if m.steps++; m.steps >= checkpointStride {
		m.steps = 0
		m.tok.Check()
	}
}

// distanceTo computes dom.PathDistance(current compact path, target)
// knowing the tag prefixes match — the same integer arithmetic as
// LocateCompactAll's distanceTo, over the shared stack plus the optional
// trailing synthetic {"", s} entry.
func (m *matcher) distanceTo(target dom.CompactPath, s int) float64 {
	sum, ta, tb := 0, 0, 0
	for i, st := range m.stack {
		d := st.sBefore - target[i].SBefore
		if d < 0 {
			d = -d
		}
		sum += d
		ta += st.sBefore
		tb += target[i].SBefore
	}
	if s > 0 {
		d := s - target[len(m.stack)].SBefore
		if d < 0 {
			d = -d
		}
		sum += d
		ta += s
		tb += target[len(m.stack)].SBefore
	}
	maxTotal := ta
	if tb > maxTotal {
		maxTotal = tb
	}
	if maxTotal == 0 {
		return 0
	}
	return float64(sum) / float64(maxTotal)
}

// patternMatches reports whether the current node (compact path = stack,
// plus {"", s} when s > 0) equals the pattern with a free sibling count at
// the wildcard index.  Lengths and tag equality have been checked by the
// caller via okDepth; only the sibling counts remain.
func (m *matcher) patternMatches(sp *Spec, s int) bool {
	for i := range m.stack {
		if i != sp.Wildcard && m.stack[i].sBefore != sp.Path[i].SBefore {
			return false
		}
	}
	if s > 0 {
		last := len(m.stack)
		if sp.Wildcard != last && sp.Path[last].SBefore != s {
			return false
		}
	}
	return true
}

func (m *matcher) visit(n *dom.Node, s int) {
	m.docN++
	m.checkpoint()
	depth := len(m.stack)
	// Candidate predicate per spec, identical to LocateCompactAll: the
	// node's compact path is the stacked C steps plus, when S steps trail
	// the last C step, the synthetic {"", s} entry Compact emits.
	for i := range m.specs {
		sp := &m.specs[i]
		if m.states[i].okDepth != depth {
			continue
		}
		var matched bool
		if s == 0 {
			matched = len(sp.Path) == depth
		} else {
			matched = len(sp.Path) == depth+1 && sp.Path[depth].Tag == ""
		}
		if !matched {
			continue
		}
		if sp.Wildcard >= 0 {
			if m.patternMatches(sp, s) {
				m.cands[i] = append(m.cands[i], n)
			}
		} else {
			m.ranked[i] = append(m.ranked[i], cand{n: n, d: m.distanceTo(sp.Path, s), docN: m.docN})
		}
	}
	if n.FirstChild == nil {
		return
	}
	// Push n's C step and advance each spec whose prefix still matches.
	tag := n.Label()
	m.stack = append(m.stack, cstep{tag: tag, sBefore: s})
	descend := false
	for i := range m.specs {
		st := &m.states[i]
		if st.okDepth == depth && st.okDepth < len(m.specs[i].Path) && m.specs[i].Path[st.okDepth].Tag == tag {
			st.okDepth++
		}
		// A candidate below needs a full tag-prefix match and a target at
		// least as long as the stack (the stack only ever grows downward).
		if st.okDepth == depth+1 && len(m.specs[i].Path) >= depth+1 {
			descend = true
		}
	}
	if descend {
		cs := 0
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			m.visit(c, cs)
			cs++
		}
	} else {
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			m.skipped++
		}
	}
	m.stack = m.stack[:len(m.stack)-1]
	for i := range m.states {
		if m.states[i].okDepth > depth {
			m.states[i].okDepth = depth
		}
	}
}

// finish ranks each tolerant spec's candidates by (distance, document
// order) with the same insertion sort as LocateCompactAll.  Skipped
// subtrees never contain candidates, so relative document order among
// candidates — and therefore the sorted lists — matches the full walk.
func (m *matcher) finish() {
	for i := range m.specs {
		if m.specs[i].Wildcard >= 0 {
			continue
		}
		cs := m.ranked[i]
		for j := 1; j < len(cs); j++ {
			c := cs[j]
			k := j - 1
			for k >= 0 && (cs[k].d > c.d || (cs[k].d == c.d && cs[k].docN > c.docN)) {
				cs[k+1] = cs[k]
				k--
			}
			cs[k+1] = c
		}
		out := m.cands[i][:0]
		for _, c := range cs {
			out = append(out, c.n)
		}
		m.cands[i] = out
	}
}
