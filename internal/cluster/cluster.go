// Package cluster implements Section 5.6 of the MSE paper: grouping the
// refined section instances from all sample pages into clusters, one per
// section schema of the engine's result page schema.
//
// A matching score between two instances from different pages combines
// their tag-path similarity (the compact paths to the minimal subtrees
// containing their records), their boundary-marker similarity (cleaned LBM
// and RBM texts) and their tag-forest similarity (record structure).  The
// stable marriage algorithm — with a threshold allowing "no match" — pairs
// instances page by page; the resulting section instance graph is mined
// for maximal cliques of size two or more with Bron-Kerbosch, and each
// clique is one section instance group.  Dangling instances that match on
// no other page are dropped, exactly as the paper prescribes.
package cluster

import (
	"sort"

	"mse/internal/cancel"
	"mse/internal/dom"
	"mse/internal/dse"
	"mse/internal/editdist"
	"mse/internal/layout"
	"mse/internal/match"
	"mse/internal/par"
	"mse/internal/sect"
)

// Options control instance grouping.
type Options struct {
	// MatchThreshold is the minimum matching score for the modified
	// stable marriage (pairs below it stay unmatched).
	MatchThreshold float64
	// Weights of the three score components; they should sum to 1.
	PathWeight   float64
	SBMWeight    float64
	ForestWeight float64
}

// DefaultOptions returns the tuned defaults.
func DefaultOptions() Options {
	return Options{
		MatchThreshold: 0.55,
		PathWeight:     0.35,
		SBMWeight:      0.35,
		ForestWeight:   0.30,
	}
}

// Instance is one refined section on one sample page.
type Instance struct {
	PageIndex int
	Section   *sect.Section

	// Cached match features.
	pref      dom.CompactPath
	lbmClean  string
	rbmClean  string
	recForest []*dom.Node
}

// Group is a cluster of instances belonging to one section schema.
type Group struct {
	Instances []*Instance
}

// PageSections is the refined section list of one sample page together
// with its rendering and query.
type PageSections struct {
	Page     *layout.Page
	Query    []string
	Sections []*sect.Section
}

// GroupInstances builds the section instance groups across sample pages.
// workers computes the pairwise score matrix (0 means GOMAXPROCS); scores
// land in an index-addressed matrix, so the grouping is identical at any
// setting.  tok, when non-nil, is polled by the score-matrix fill — the
// quadratic heart of clustering — so a canceled context aborts the
// grouping between instance pairs.
func GroupInstances(pages []*PageSections, opt Options, workers int, tok *cancel.Token) []*Group {
	var instances []*Instance
	for pi, ps := range pages {
		for _, s := range ps.Sections {
			instances = append(instances, NewInstance(pi, ps, s))
		}
	}
	// Build the instance graph: stable-marriage matches per page pair.
	g := match.NewGraph(len(instances))
	byPage := map[int][]int{}
	for idx, inst := range instances {
		byPage[inst.PageIndex] = append(byPage[inst.PageIndex], idx)
	}
	var pageIDs []int
	for pi := range byPage {
		pageIDs = append(pageIDs, pi)
	}
	sort.Ints(pageIDs)
	// Precompute the cross-page score matrix: each symmetric instance pair
	// is scored exactly once (stable marriage re-reads scores many times
	// while building preference lists and running proposals), fanned out
	// over a worker pool.  Entries are written by pair index, so the matrix
	// — and everything downstream — is identical at any parallelism.
	n := len(instances)
	type pairIdx struct{ a, b int }
	var pairs []pairIdx
	for a := 0; a < len(pageIDs); a++ {
		for b := a + 1; b < len(pageIDs); b++ {
			for _, i := range byPage[pageIDs[a]] {
				for _, j := range byPage[pageIDs[b]] {
					pairs = append(pairs, pairIdx{i, j})
				}
			}
		}
	}
	scores := make([]float64, n*n)
	par.ForEachIndex(len(pairs), par.Workers(workers), func(k int) {
		tok.Check()
		p := pairs[k]
		s := Score(instances[p.a], instances[p.b], opt, tok)
		scores[p.a*n+p.b] = s
		scores[p.b*n+p.a] = s
	})
	for a := 0; a < len(pageIDs); a++ {
		for b := a + 1; b < len(pageIDs); b++ {
			tok.Check()
			ia, ib := byPage[pageIDs[a]], byPage[pageIDs[b]]
			res := match.StableMarriage(len(ia), len(ib), func(i, j int) float64 {
				return scores[ia[i]*n+ib[j]]
			}, opt.MatchThreshold)
			for i, j := range res {
				if j >= 0 {
					g.AddEdge(ia[i], ib[j])
				}
			}
		}
	}
	cliques := g.MaximalCliques(2)
	// Larger cliques claim their instances first; an instance belongs to
	// exactly one group.
	sort.SliceStable(cliques, func(i, j int) bool { return len(cliques[i]) > len(cliques[j]) })
	used := make([]bool, len(instances))
	var groups []*Group
	for _, c := range cliques {
		var members []int
		for _, v := range c {
			if !used[v] {
				members = append(members, v)
			}
		}
		if len(members) >= 2 {
			grp := &Group{}
			for _, v := range members {
				used[v] = true
				grp.Instances = append(grp.Instances, instances[v])
			}
			groups = append(groups, grp)
		}
	}
	// Deterministic order: by first instance's page then line.
	sort.SliceStable(groups, func(i, j int) bool {
		a, b := groups[i].Instances[0], groups[j].Instances[0]
		if a.PageIndex != b.PageIndex {
			return a.PageIndex < b.PageIndex
		}
		return a.Section.Start < b.Section.Start
	})
	return groups
}

// NewInstance builds the match-feature cache for one section instance.
// Exported for wrapper construction and tests; GroupInstances calls it for
// every refined section.
func NewInstance(pi int, ps *PageSections, s *sect.Section) *Instance {
	inst := &Instance{PageIndex: pi, Section: s}
	if sub := ps.Page.SectionRoot(s.Start, s.End); sub != nil {
		inst.pref = dom.PathOf(sub).Compact()
	}
	if s.LBM >= 0 {
		inst.lbmClean = dse.CleanLine(&ps.Page.Lines[s.LBM], ps.Query)
	}
	if s.RBM >= 0 {
		inst.rbmClean = dse.CleanLine(&ps.Page.Lines[s.RBM], ps.Query)
	}
	if len(s.Records) > 0 {
		inst.recForest = s.Records[0].Forest()
	} else {
		inst.recForest = ps.Page.Forest(s.Start, s.End)
	}
	// Warm the structural fingerprints of the record forest so every later
	// comparison — including ones racing on a worker pool — finds them
	// cached on the nodes.
	for _, t := range inst.recForest {
		if t != nil {
			t.Fingerprint()
		}
	}
	return inst
}

// Score computes the matching score between two instances (higher is more
// alike, in [0, 1]).  tok may be nil.
func Score(a, b *Instance, opt Options, tok *cancel.Token) float64 {
	pathSim := 0.0
	if len(a.pref) > 0 && len(b.pref) > 0 {
		d := dom.PathDistance(a.pref, b.pref)
		if d > 1 {
			d = 1
		}
		pathSim = 1 - d
	}
	sbmSim := sbmSimilarity(a, b)
	forestSim := 1 - editdist.ForestDistCancel(a.recForest, b.recForest, tok)
	return opt.PathWeight*pathSim + opt.SBMWeight*sbmSim + opt.ForestWeight*forestSim
}

func sbmSimilarity(a, b *Instance) float64 {
	part := func(x, y string) float64 {
		switch {
		case x == "" && y == "":
			return 0.5 // both missing: weak evidence
		case x == "" || y == "":
			return 0
		case x == y:
			return 1
		default:
			return 1 - editdist.NormalizedStringDistance(x, y)
		}
	}
	return (part(a.lbmClean, b.lbmClean) + part(a.rbmClean, b.rbmClean)) / 2
}
