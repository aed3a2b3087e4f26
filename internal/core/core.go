// Package core implements the MSE pipeline of Section 3 of the paper: the
// nine steps that turn a handful of sample result pages from one search
// engine into a wrapper that extracts every dynamic section — and the
// records within each section — from any result page of that engine.
//
//	step 1  render pages into content lines            (internal/layout)
//	step 2  extract multi-record sections with MRE     (internal/mre)
//	step 3  identify dynamic sections with DSE         (internal/dse)
//	step 4  refine MRs and DSs against each other      (internal/refine)
//	step 5  mine records from record-less DSs          (internal/mining)
//	step 6  resolve section-record granularity         (internal/granularity)
//	step 7  group section instances across pages       (internal/cluster)
//	step 8  build a wrapper per section schema         (internal/wrapper)
//	step 9  combine wrappers into section families     (internal/wrapper)
package core

import (
	"context"
	"errors"
	"sort"
	"sync/atomic"

	"mse/internal/cancel"
	"mse/internal/cluster"
	"mse/internal/dom"
	"mse/internal/dse"
	"mse/internal/editdist"
	"mse/internal/granularity"
	"mse/internal/htmlparse"
	"mse/internal/layout"
	"mse/internal/mining"
	"mse/internal/mre"
	"mse/internal/obs"
	"mse/internal/par"
	"mse/internal/prune"
	"mse/internal/refine"
	"mse/internal/sect"
	"mse/internal/wrapper"
)

// SamplePage is one training input: the HTML of a result page and the
// query terms that produced it.
type SamplePage struct {
	HTML  string
	Query []string
}

// Options bundle the per-stage parameters.  The zero value is not usable;
// start from DefaultOptions.
type Options struct {
	MRE         mre.Options
	DSE         dse.Options
	Refine      refine.Options
	Mining      mining.Options
	Granularity granularity.Options
	Cluster     cluster.Options
	Wrapper     wrapper.Options
	// DisableRefine skips step 4 (ablation).
	DisableRefine bool
	// DisableGranularity skips step 6 (ablation).
	DisableGranularity bool
	// DisableFamilies skips step 9 (ablation).
	DisableFamilies bool
	// Parallelism is the worker count for the data-parallel stages: the
	// per-page loops of steps 1-2 and 4-6, and (unless Cluster.Parallelism
	// overrides it) the pairwise score matrix of step 7.  0 means
	// GOMAXPROCS; 1 forces the serial path.  Results are written into
	// index-addressed slices, so output is identical at any setting.
	Parallelism int
	// Obs, when non-nil, receives one trace per BuildWrapper /
	// AnalyzePages / Extract call: a root span with one child span per
	// pipeline step plus stage counters (pages, sections, records,
	// tree_dist_calls).  ExtractLeasedObs ignores it and records under
	// its caller's root span instead.  When nil — the default —
	// instrumentation reduces to nil-receiver checks and costs nothing.
	Obs *obs.Tracer

	// cancel is the cooperative-cancellation token BuildWrapperCtx threads
	// through the build pipeline; nil on BuildWrapper, which never fails
	// by cancellation.  Extraction does not read it: ExtractLeasedObs
	// derives a per-call token from its own ctx.
	cancel *cancel.Token
}

// DefaultOptions returns the paper's parameters.
func DefaultOptions() Options {
	return Options{
		MRE:         mre.DefaultOptions(),
		DSE:         dse.DefaultOptions(),
		Refine:      refine.DefaultOptions(),
		Mining:      mining.DefaultOptions(),
		Granularity: granularity.DefaultOptions(),
		Cluster:     cluster.DefaultOptions(),
		Wrapper:     wrapper.DefaultOptions(),
	}
}

// EngineWrapper is the full extraction wrapper for one search engine: an
// ordered list of section wrappers plus the section families built from
// them.
type EngineWrapper struct {
	Wrappers []*wrapper.SectionWrapper `json:"wrappers"`
	Families []*wrapper.Family         `json:"families,omitempty"`

	opt Options

	// compiled caches the lowered form of Wrappers and Families plus the
	// prune specs derived from them (see Compile).  Built lazily on first
	// compiled extraction, eagerly by serve.Registry; never serialized.
	compiled atomic.Pointer[compiledEngine]
}

// compiledEngine is the compiled form of an EngineWrapper: specs[i] is the
// prune target of ws[i] for i < len(ws), and of fams[i-len(ws)] after.
type compiledEngine struct {
	ws    []*wrapper.CompiledWrapper
	fams  []*wrapper.CompiledFamily
	specs []prune.Spec
}

// Compile lowers the engine's wrappers and families into their compiled
// forms and derives the DOM-pruning specs (one per wrapper/family, index-
// aligned).  Idempotent; call after mutating Wrappers/Families (e.g. a
// registry wrapper swap) to refresh the cache.  Extraction compiles
// lazily, so calling this is an optimization, not a requirement.
func (ew *EngineWrapper) Compile() {
	ce := &compiledEngine{}
	for _, w := range ew.Wrappers {
		ce.ws = append(ce.ws, wrapper.Compile(w))
		ce.specs = append(ce.specs, prune.Spec{Path: w.Pref, Wildcard: -1})
	}
	for _, f := range ew.Families {
		ce.fams = append(ce.fams, wrapper.CompileFamily(f))
		switch f.Type {
		case wrapper.Type1:
			ce.specs = append(ce.specs, prune.Spec{Path: f.Pref, Wildcard: -1})
		case wrapper.Type2:
			pat := append(append(dom.CompactPath(nil), f.Pref...), f.SPref...)
			ce.specs = append(ce.specs, prune.Spec{Path: pat, Wildcard: len(f.Pref)})
		default:
			// Unknown family type (corrupt JSON): Family.Apply would return
			// nil, so give it a spec no document node can match to keep the
			// index alignment without producing candidates.
			ce.specs = append(ce.specs, prune.Spec{Path: dom.CompactPath{{Tag: "\x00none"}}, Wildcard: -1})
		}
	}
	ew.compiled.Store(ce)
}

// compiledEngine returns the cached compiled form, building it on first
// use.  Concurrent first calls may both compile; either result is valid.
func (ew *EngineWrapper) compiledEngine() *compiledEngine {
	if ce := ew.compiled.Load(); ce != nil {
		return ce
	}
	ew.Compile()
	return ew.compiled.Load()
}

// Section is an extracted section; see wrapper.ExtractedSection.
type Section = wrapper.ExtractedSection

// Record is an extracted record; see wrapper.ExtractedRecord.
type Record = wrapper.ExtractedRecord

// ErrNoSamplePages is returned by BuildWrapper when fewer than two sample
// pages are supplied; DSE needs at least a pair.
var ErrNoSamplePages = errors.New("core: need at least two sample pages")

// BuildWrapper runs the full MSE pipeline over the sample pages.
//
// When opt.Obs is set, one "build_wrapper" root span is recorded per call
// with exactly one child span per pipeline step (obs.PipelineSteps) —
// steps skipped by ablation options keep a zero-duration span — and the
// counters pages, sections, records and tree_dist_calls.
func BuildWrapper(samples []*SamplePage, opt Options) (*EngineWrapper, error) {
	if len(samples) < 2 {
		return nil, ErrNoSamplePages
	}
	root := opt.Obs.Start(obs.RootBuildWrapper)
	defer root.End()
	// Create the nine step spans up front so the trace always covers the
	// full pipeline, even when an ablation skips a step.
	for _, step := range obs.PipelineSteps {
		root.Child(step)
	}
	root.Count("pages", int64(len(samples)))
	edCalls := editdist.TreeCalls()
	cs0 := editdist.Stats()

	// Steps 1-6 per page (DSE works across pages).  The sample pages live
	// only for the duration of this call — the wrappers built from them
	// copy every string and path they keep — so their parse arenas and
	// render scratches are leased from the pools and released on return.
	pageSections, leases, err := analyzePages(samples, opt, root, true)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, l := range leases {
			l.Release()
		}
	}()
	// Step 7: group section instances into schema clusters.
	clOpt := opt.Cluster
	if clOpt.Parallelism == 0 {
		clOpt.Parallelism = opt.Parallelism
	}
	clusterSp := root.Child(obs.StepCluster)
	t0 := clusterSp.Begin()
	groups := cluster.GroupInstances(pageSections, clOpt)
	clusterSp.AddSince(t0)
	// Step 8: one wrapper per group, ordered by document position.
	wrapSp := root.Child(obs.StepWrapper)
	t0 = wrapSp.Begin()
	sort.SliceStable(groups, func(i, j int) bool {
		return avgStart(groups[i]) < avgStart(groups[j])
	})
	ws := make([]*wrapper.SectionWrapper, 0, len(groups))
	for order, g := range groups {
		ws = append(ws, wrapper.Build(g, pageSections, order, opt.Wrapper))
	}
	wrapSp.AddSince(t0)
	// Step 9: section families.
	var fams []*wrapper.Family
	if !opt.DisableFamilies {
		famSp := root.Child(obs.StepFamilies)
		t0 = famSp.Begin()
		ws, fams = wrapper.BuildFamilies(ws, opt.Wrapper)
		famSp.AddSince(t0)
	}
	root.Count("tree_dist_calls", editdist.TreeCalls()-edCalls)
	root.Count("parallel_workers", int64(par.Workers(opt.Parallelism)))
	cs := editdist.Stats().Sub(cs0)
	root.Count("tree_cache_lookups", cs.Lookups)
	root.Count("tree_cache_hits", cs.Hits)
	root.Count("tree_cache_identical", cs.Identical)
	root.Count("tree_cache_early_exits", cs.EarlyExits)
	root.Count("tree_cache_evictions", cs.Evictions)
	return &EngineWrapper{Wrappers: ws, Families: fams, opt: opt}, nil
}

// AnalyzePages executes steps 1-6 and returns, per sample page, the final
// refined sections with records.  It is exported for evaluation harnesses
// that score the training-time analysis directly.  When opt.Obs is set it
// records an "analyze_pages" root span with one child per step 1-6.
func AnalyzePages(samples []*SamplePage, opt Options) ([]*cluster.PageSections, error) {
	root := opt.Obs.Start(obs.RootAnalyzePages)
	defer root.End()
	// The returned PageSections keep their pages alive indefinitely, so
	// this path stays on the unpooled allocator.
	out, _, err := analyzePages(samples, opt, root, false)
	return out, err
}

// analyzePages is AnalyzePages recording its step spans under parent
// (nil for none).  Step spans accumulate across the per-page loops, so
// each step yields exactly one span regardless of sample count; under
// parallelism the accumulated step durations sum worker time, not wall
// time.  The per-page stages (1-2 and 4-6) fan out over a worker pool —
// pages are independent there — while DSE (step 3) is inherently
// cross-page and stays serial.
func analyzePages(samples []*SamplePage, opt Options, parent *obs.Span, pooled bool) ([]*cluster.PageSections, []*PageLease, error) {
	workers := par.Workers(opt.Parallelism)
	renderSp := parent.Child(obs.StepRender)
	mreSp := parent.Child(obs.StepMRE)
	inputs := make([]*dse.PageInput, len(samples))
	var leases []*PageLease
	if pooled {
		leases = make([]*PageLease, len(samples))
		// A panic anywhere below (including a cancellation signal or a
		// worker panic re-raised by par.ForEachIndex after all workers have
		// stopped) must return every leased arena and page to the pools
		// before unwinding.  Release is idempotent, so the caller's own
		// deferred release of a successfully returned slice stays safe.
		defer func() {
			if r := recover(); r != nil {
				for _, l := range leases {
					l.Release()
				}
				panic(r)
			}
		}()
	}
	par.ForEachIndex(len(samples), workers, func(i int) {
		opt.cancel.Check()
		sp := samples[i]
		t0 := renderSp.Begin()
		var page *layout.Page
		if pooled {
			doc, arena := htmlparse.ParsePooled(sp.HTML) // step 1
			// The lease owns the arena from this point: if the render below
			// panics (cancellation or a bug), the deferred sweep above
			// recycles it.  RenderPooledCancel recycles its own scratch on
			// panic, so the page is only attached once fully built.
			leases[i] = &PageLease{arena: arena}
			page = layout.RenderPooledCancel(doc, opt.cancel)
			leases[i].page = page
		} else {
			page = layout.Render(htmlparse.Parse(sp.HTML)) // step 1
		}
		renderSp.AddSince(t0)
		t0 = mreSp.Begin()
		mrs := mre.Extract(page, opt.MRE) // step 2
		mreSp.AddSince(t0)
		inputs[i] = &dse.PageInput{Page: page, Query: sp.Query, MRs: mrs}
	})
	dseSp := parent.Child(obs.StepDSE)
	t0 := dseSp.Begin()
	dss, marks := dse.Run(inputs, opt.DSE) // step 3
	dseSp.AddSince(t0)

	refineSp := parent.Child(obs.StepRefine)
	miningSp := parent.Child(obs.StepMining)
	granSp := parent.Child(obs.StepGranularity)
	out := make([]*cluster.PageSections, len(samples))
	par.ForEachIndex(len(inputs), workers, func(i int) {
		opt.cancel.Check()
		in := inputs[i]
		var sections []*sect.Section
		if opt.DisableRefine {
			// Ablation: take DSs as sections and mine all of them.
			sections = dss[i]
		} else {
			t0 := refineSp.Begin()
			sections = refine.Refine(in.Page, in.MRs, dss[i], marks[i], opt.Refine) // step 4
			refineSp.AddSince(t0)
		}
		t0 := miningSp.Begin()
		for _, s := range sections { // step 5
			if len(s.Records) == 0 {
				mining.Mine(s, opt.Mining)
			}
		}
		miningSp.AddSince(t0)
		if !opt.DisableGranularity {
			t0 = granSp.Begin()
			sections = granularity.Resolve(in.Page, sections, opt.Granularity) // step 6
			granSp.AddSince(t0)
		}
		out[i] = &cluster.PageSections{Page: in.Page, Query: in.Query, Sections: sections}
	})
	// Counters sum after the fan-out, in page order, so the totals are
	// deterministic regardless of worker scheduling.
	sectionCount, recordCount := int64(0), int64(0)
	for i := range out {
		out[i].Sections = dropEmpty(out[i].Sections)
		sectionCount += int64(len(out[i].Sections))
		for _, s := range out[i].Sections {
			recordCount += int64(len(s.Records))
		}
	}
	parent.Count("sections", sectionCount)
	parent.Count("records", recordCount)
	return out, leases, nil
}

func dropEmpty(sections []*sect.Section) []*sect.Section {
	out := sections[:0]
	for _, s := range sections {
		if s.Len() > 0 && len(s.Records) > 0 {
			out = append(out, s)
		}
	}
	return out
}

func avgStart(g *cluster.Group) float64 {
	sum := 0
	for _, inst := range g.Instances {
		sum += inst.Section.Start
	}
	return float64(sum) / float64(len(g.Instances))
}

// Extract applies the engine wrapper to a new result page.  query may be
// nil when the retrieving query is unknown.  Sections are returned in page
// order; overlapping extractions are resolved in favour of regular
// wrappers over family matches.
//
// Extract is ExtractLeasedObs without a context and with the pooled page
// released before returning.  When the wrapper's Options.Obs is set, each
// call records an "extract" root span with render / prune / wrapper_build
// / families children and sections and records counters.
func (ew *EngineWrapper) Extract(html string, query []string) []*Section {
	root := ew.opt.Obs.Start(obs.RootExtract)
	defer root.End()
	sections, lease, _ := ew.ExtractLeasedObs(context.Background(), html, query, root)
	lease.Release()
	return sections
}

// PageLease holds the pooled parse arena and render scratch behind one
// ExtractLeasedObs call.  Releasing it returns both to their pools; callers
// must do so only once they no longer reference the page.  The extracted
// sections themselves are plain strings and ints and always outlive the
// lease.  A nil lease is valid and Release is idempotent — including under
// concurrent calls, so a deferred release racing a panic-path release can
// never return an arena to the pool twice.
type PageLease struct {
	page  *layout.Page
	arena *dom.Arena
	// released flips exactly once; the loser of the CAS does nothing.
	released atomic.Bool
}

// Page returns the rendered page backing the extraction.  It becomes
// invalid when the lease is released.
func (l *PageLease) Page() *layout.Page {
	if l == nil {
		return nil
	}
	return l.page
}

// Release returns the lease's arena and render scratch to their pools.
// Only the first call (across all goroutines) releases; the rest are
// no-ops.
func (l *PageLease) Release() {
	if l == nil || !l.released.CompareAndSwap(false, true) {
		return
	}
	if l.page != nil {
		l.page.Release()
		l.page = nil
	}
	if l.arena != nil {
		l.arena.Release()
		l.arena = nil
	}
}

// ExtractLeasedObs is the extraction entry point of the package; Extract
// is its convenience form.  One pruning DFS locates every wrapper's
// candidate subtrees, the page is rendered in full (without the tag paths
// only wrapper induction reads), and the compiled wrappers consume the
// pre-located candidates instead of re-walking the tree.  The DOM comes
// from a pooled parse arena and the page from a pooled render scratch.
// The interpreted SectionWrapper.Apply / Family.Apply survive only as the
// test reference this path is differential-tested against.
//
// Per-stage spans (render, prune, wrapper_build, families) and the
// sections/records counters are recorded under the caller-supplied root;
// services pass a fresh obs.NewSpan per request to get that one
// extraction's stage timings.  root may be nil, which disables tracing.
//
// ctx is polled at the prune, render and wrapper-application checkpoints;
// a ctx that can never be canceled (context.Background) costs nothing.
// On cancellation every pooled resource acquired for the call is released
// before returning, sections and lease are nil, and err satisfies
// errors.Is(err, ErrCanceled).  On success the caller owns the lease and
// must release it exactly once, after the response derived from the
// sections and page is complete.
func (ew *EngineWrapper) ExtractLeasedObs(ctx context.Context, html string, query []string, root *obs.Span) (sections []*Section, lease *PageLease, err error) {
	tok := cancel.FromContext(ctx)
	// The lease exists before any pooled acquisition so that the deferred
	// release below covers every partial state: arena acquired but render
	// panicked (page still nil — RenderPooledNoPaths recycles its own
	// scratch on the way out), or both acquired but Apply panicked.
	lease = &PageLease{}
	defer func() {
		if r := recover(); r != nil {
			lease.Release()
			lease = nil
			sections = nil
			if cancel.IsSignal(r) {
				err = canceledErr(ctx)
				return
			}
			panic(r)
		}
	}()
	wopt := ew.opt.Wrapper
	wopt.Cancel = tok
	ce := ew.compiledEngine()
	renderSp := root.Child(obs.StepRender)
	t0 := renderSp.Begin()
	doc, arena := htmlparse.ParsePooled(html)
	lease.arena = arena
	renderSp.AddSince(t0)

	pruneSp := root.Child(obs.StepPrune)
	t0 = pruneSp.Begin()
	res := prune.Run(doc, ce.specs, tok)
	pruneSp.AddSince(t0)
	defer res.Release()

	t0 = renderSp.Begin()
	page := layout.RenderPooledNoPaths(doc, tok)
	lease.page = page
	renderSp.AddSince(t0)

	var all []*Section
	wrapSp := root.Child(obs.StepWrapper)
	t0 = wrapSp.Begin()
	for i, cw := range ce.ws {
		if s := cw.Apply(page, res.Cands(i), query, wopt); s != nil {
			all = append(all, s)
		}
	}
	wrapSp.AddSince(t0)
	famSp := root.Child(obs.StepFamilies)
	t0 = famSp.Begin()
	for i, cf := range ce.fams {
		all = append(all, cf.ApplyCands(page, res.Cands(len(ce.ws)+i), wopt)...)
	}
	famSp.AddSince(t0)
	return finishSections(all, root), lease, nil
}

// finishSections orders and deduplicates the raw per-wrapper extractions —
// the shared tail of ExtractLeasedObs and of the interpreted test
// reference.
func finishSections(all []*Section, span *obs.Span) []*Section {
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Start != all[j].Start {
			return all[i].Start < all[j].Start
		}
		// Regular wrappers win ties against family matches.
		return !all[i].FromFamily && all[j].FromFamily
	})
	// Drop overlapping duplicates (family rediscovering a wrapped
	// section).
	var out []*Section
	for _, s := range all {
		dup := false
		for _, kept := range out {
			if overlapFrac(kept, s) > 0.5 {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, s)
		}
	}
	if span != nil {
		span.Count("sections", int64(len(out)))
		records := int64(0)
		for _, s := range out {
			records += int64(len(s.Records))
		}
		span.Count("records", records)
	}
	return out
}

// SetOptions replaces the wrapper-application options (used after loading
// a serialized wrapper).
func (ew *EngineWrapper) SetOptions(opt Options) { ew.opt = opt }

func overlapFrac(a, b *Section) float64 {
	lo := a.Start
	if b.Start > lo {
		lo = b.Start
	}
	hi := a.End
	if b.End < hi {
		hi = b.End
	}
	if hi <= lo {
		return 0
	}
	minLen := a.End - a.Start
	if l := b.End - b.Start; l < minLen {
		minLen = l
	}
	if minLen == 0 {
		return 0
	}
	return float64(hi-lo) / float64(minLen)
}
