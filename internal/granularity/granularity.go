// Package granularity implements Section 5.5 of the MSE paper: resolving
// the section-record granularity problem after refinement.
//
// Two symmetric mistakes are repaired:
//
//   - the oversized-record problem — consecutive sections with the same
//     format were taken as records of one big MR, or several true records
//     were merged into one; detected by record-mining the largest records
//     and applying the W × Dinr dissimilarity test to the boundary
//     sub-records;
//   - the splitting-record problem — one true record was split into
//     smaller pieces, or large records were extracted as whole sections;
//     repaired by re-partitioning via section cohesion and by merging runs
//     of sibling single-record sections into one section.
package granularity

import (
	"mse/internal/cancel"
	"mse/internal/layout"
	"mse/internal/mining"
	"mse/internal/sect"
	"mse/internal/visual"
)

// Options control granularity resolution.
type Options struct {
	// MaxMerge bounds the k of k-consecutive-record merge candidates when
	// looking for split records.
	MaxMerge int
}

// DefaultOptions returns the paper's parameters.
func DefaultOptions() Options {
	return Options{MaxMerge: 8}
}

// config is one Resolve call's parameters: the stage's own options, the
// shared visual parameters, record mining's options, and the token polled
// before each section and each candidate partition is scored (the bulk of
// granularity resolution's time on pages with long sections).
type config struct {
	Options
	*visual.Params
	mining mining.Options
	tok    *cancel.Token
}

// Resolve applies both granularity repairs to a page's refined sections
// and returns the corrected section list in document order.  tok may be
// nil.
func Resolve(page *layout.Page, sections []*sect.Section, vp *visual.Params, mopt mining.Options, o Options, tok *cancel.Token) []*sect.Section {
	opt := &config{Options: o, Params: vp, mining: mopt, tok: tok}
	var out []*sect.Section
	for _, s := range sections {
		opt.tok.Check()
		out = append(out, resolveOversized(page, s, opt)...)
	}
	for _, s := range out {
		resolveSplitWithinSection(s, opt)
	}
	return mergeSingleRecordSiblings(page, out)
}

// resolveOversized checks a section for records that are really whole
// sections (or merged records).  Following §5.5: the largest record is
// record-mined; if it decomposes, the boundary sub-records decide — via
// the W × Dinr test — whether the original "records" were sections (split
// the MR) or merely merged records (adopt the finer partition).
func resolveOversized(page *layout.Page, s *sect.Section, opt *config) []*sect.Section {
	if len(s.Records) < 2 {
		return []*sect.Section{s}
	}
	// Find the largest record and try to mine sub-records from it.
	largest := 0
	for i, r := range s.Records {
		if r.Len() > s.Records[largest].Len() {
			largest = i
		}
	}
	lr := s.Records[largest]
	sub := mining.MineRecords(page, lr.Start, lr.End, opt.Params, opt.mining)

	// When the largest record decomposes, decide section-vs-merged-record
	// by testing consecutive record pairs R1, R2: mine both; if the
	// boundary sub-records (last of R1, first of R2) are alien to the
	// other side's sub-records, R1 and R2 are sections.  (A largest record
	// that does not decompose rules the sections case out, but other
	// records may still be merged pairs — §5.5 keeps "checking other large
	// records" — so fall through to the full-partition comparison below.)
	if len(sub) > 1 && consecutivePairsAreSections(page, s, opt) {
		var out []*sect.Section
		for _, r := range s.Records {
			ns := sect.New(page, r.Start, r.End)
			ns.Records = mining.MineRecords(page, r.Start, r.End, opt.Params, opt.mining)
			out = append(out, ns)
		}
		if len(out) > 0 {
			out[0].LBM = s.LBM
			out[len(out)-1].RBM = s.RBM
		}
		return out
	}

	// Merged records within a correct section: build the fully refined
	// partition (every decomposable record replaced by its sub-records)
	// and adopt it when its cohesion beats the original partition.
	// Comparing one replacement at a time would pit a mixed-granularity
	// partition against a uniform one and always lose.
	var refined []visual.Block
	decomposed := false
	for _, r := range s.Records {
		subR := mining.MineRecords(page, r.Start, r.End, opt.Params, opt.mining)
		if len(subR) > 1 {
			decomposed = true
			refined = append(refined, subR...)
		} else {
			refined = append(refined, r)
		}
	}
	if decomposed {
		coOrig := mining.PartitionScore(page, s.Records, s.Start, s.End, opt.Params)
		coAlt := mining.PartitionScore(page, refined, s.Start, s.End, opt.Params)
		if coAlt > coOrig {
			s.Records = refined
		}
	}
	return []*sect.Section{s}
}

// consecutivePairsAreSections applies the §5.5 test to the section's
// consecutive record pairs: with R1 mined into ⟨r11..r1u⟩ and R2 into
// ⟨r21..r2v⟩, R1 and R2 are sections when Davgrs(r21, R1subs) > W×Dinr(R1subs)
// or Davgrs(r1u, R2subs) > W×Dinr(R2subs).
func consecutivePairsAreSections(page *layout.Page, s *sect.Section, opt *config) bool {
	votes, tests := 0, 0
	for i := 0; i+1 < len(s.Records); i++ {
		r1, r2 := s.Records[i], s.Records[i+1]
		sub1 := mining.MineRecords(page, r1.Start, r1.End, opt.Params, opt.mining)
		sub2 := mining.MineRecords(page, r2.Start, r2.End, opt.Params, opt.mining)
		if len(sub1) < 2 || len(sub2) < 2 {
			continue // a record that does not decompose is a plain record
		}
		tests++
		t1 := opt.Threshold(sub1)
		t2 := opt.Threshold(sub2)
		r21 := sub2[0]
		r1u := sub1[len(sub1)-1]
		if visual.AvgRecordDistance(r21, sub1, opt.RecordWeights) > t1 ||
			visual.AvgRecordDistance(r1u, sub2, opt.RecordWeights) > t2 {
			votes++
		}
	}
	return tests > 0 && votes*2 > tests // majority of testable pairs
}

// resolveSplitWithinSection repairs records that were split while the
// section itself is correct: every "merge k consecutive records" partition
// is scored by cohesion and the best partition is adopted (§5.5).
func resolveSplitWithinSection(s *sect.Section, opt *config) {
	n := len(s.Records)
	if n < 2 {
		return
	}
	best := s.Records
	opt.tok.Check()
	bestScore := mining.PartitionScore(s.Page, best, s.Start, s.End, opt.Params)
	maxK := opt.MaxMerge
	if maxK > n {
		maxK = n
	}
	for k := 2; k <= maxK; k++ {
		if n%k != 0 {
			continue
		}
		var merged []visual.Block
		ok := true
		for i := 0; i < n; i += k {
			first, last := s.Records[i], s.Records[i+k-1]
			if first.End > last.Start && i+k-1 != i {
				ok = false
				break
			}
			merged = append(merged, visual.Block{Page: s.Page, Start: first.Start, End: last.End})
		}
		if !ok {
			continue
		}
		opt.tok.Check()
		if sc := mining.PartitionScore(s.Page, merged, s.Start, s.End, opt.Params); sc > bestScore {
			best, bestScore = merged, sc
		}
	}
	s.Records = best
}

// mergeSingleRecordSiblings handles the other splitting sub-case: a run of
// consecutive sections that are siblings under one DOM subtree and hold a
// single record each is really one section whose records were extracted as
// sections.  The run is replaced by one section with each original section
// as a record.
func mergeSingleRecordSiblings(page *layout.Page, sections []*sect.Section) []*sect.Section {
	var out []*sect.Section
	i := 0
	for i < len(sections) {
		j := i
		for j < len(sections) && len(sections[j].Records) == 1 &&
			(j == i || adjacentSiblings(page, sections[j-1], sections[j])) {
			j++
		}
		if j-i >= 2 {
			ns := sect.New(page, sections[i].Start, sections[j-1].End)
			for k := i; k < j; k++ {
				ns.Records = append(ns.Records, sections[k].Block())
			}
			ns.LBM = sections[i].LBM
			ns.RBM = sections[j-1].RBM
			out = append(out, ns)
			i = j
			continue
		}
		out = append(out, sections[i])
		i++
	}
	return out
}

// adjacentSiblings reports whether two sections are line-adjacent and
// their minimal subtrees share a parent in the DOM.
func adjacentSiblings(page *layout.Page, a, b *sect.Section) bool {
	if a.End != b.Start {
		return false
	}
	na := page.MinimalSubtree(a.Start, a.End)
	nb := page.MinimalSubtree(b.Start, b.End)
	if na == nil || nb == nil {
		return false
	}
	return na.Parent != nil && na.Parent == nb.Parent
}
