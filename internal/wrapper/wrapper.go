// Package wrapper implements Sections 5.7 and 5.8 of the MSE paper:
// constructing section wrappers from section instance groups, combining
// wrappers into section families to handle hidden sections, and applying
// wrappers/families to new result pages.
//
// A section wrapper is the paper's quaternion ⟨pref, seps, LBMs, RBMs⟩:
// pref is the (compact) tag path leading to the minimum subtree containing
// the section's records, seps are the separators that partition the
// subtree's forest into records, and LBMs/RBMs are the boundary-marker
// texts (majority-voted, with their text attributes retained for family
// construction).
package wrapper

import (
	"sort"

	"mse/internal/cancel"
	"mse/internal/dom"
	"mse/internal/dse"
	"mse/internal/layout"
	"mse/internal/mining"
	"mse/internal/visual"

	"mse/internal/cluster"
)

// Separator is the seps component of a section wrapper: the structural
// signatures observed at record-starting forest roots (StartSigs) and at
// records' subsequent roots (InteriorSigs).  When the two sets cannot
// distinguish roots (uniform rows), RootsPerRecord groups consecutive
// roots instead.
type Separator struct {
	StartSigs      []string
	InteriorSigs   []string
	RootsPerRecord int
}

func containsString(list []string, v string) bool {
	for _, x := range list {
		if x == v {
			return true
		}
	}
	return false
}

// SectionWrapper extracts one section schema.
type SectionWrapper struct {
	// Pref locates the minimal subtree containing the records.
	Pref dom.CompactPath
	// Sep partitions the subtree's forest into records.
	Sep Separator
	// LBMs / RBMs are the cleaned boundary-marker texts seen across the
	// instance group, most frequent first.
	LBMs []string
	RBMs []string
	// LBMAttrs are the text attributes of the LBM line (majority
	// instance); used for section-family construction and application.
	LBMAttrs []layout.TextAttr
	// RecordAttrs is the set of text attributes seen on record lines;
	// family construction requires the LBM attrs to be distinct from
	// these.
	RecordAttrs []layout.TextAttr
	// LBMInside records whether the boundary-marker line lies inside the
	// pref subtree (Figure 10 flat layouts) or above it (separate heading
	// elements).  It selects between Type 1 and Type 2 family semantics.
	LBMInside bool
	// Order is the position of the section schema in the page schema.
	Order int
}

// Options control wrapper construction and application.
type Options struct {
	Mining        mining.Options
	LineWeights   visual.LineWeights
	RecordWeights visual.RecordWeights
	// Cancel, when non-nil, is polled by Apply before each candidate
	// subtree is validated and partitioned, so a canceled context aborts
	// extraction between candidates.  core's ctx-accepting entry points
	// install it; it is never serialized with a wrapper.
	Cancel *cancel.Token `json:"-"`
}

// DefaultOptions returns the defaults.
func DefaultOptions() Options {
	return Options{
		Mining:        mining.DefaultOptions(),
		LineWeights:   visual.DefaultLineWeights(),
		RecordWeights: visual.DefaultRecordWeights(),
	}
}

// Build constructs a section wrapper from one instance group (§5.7).
// pages[i] must be the PageSections the group's instances refer to.
func Build(group *cluster.Group, pages []*cluster.PageSections, order int, opt Options) *SectionWrapper {
	w := &SectionWrapper{Order: order}

	// --- pref: merge the instances' compact paths ---
	var prefs []dom.CompactPath
	for _, inst := range group.Instances {
		ps := pages[inst.PageIndex]
		if sub := ps.Page.SectionRoot(inst.Section.Start, inst.Section.End); sub != nil {
			prefs = append(prefs, dom.PathOf(sub).Compact())
		}
	}
	w.Pref = mergeCompactPaths(prefs)

	// --- seps: record-start and record-interior root signatures ---
	// Signatures are taken from the records' *unexpanded* minimal forests
	// so they live at the same tree level as the roots visible when the
	// stored separator is later applied to a whole section range.
	startCount := map[string]int{}
	interiorCount := map[string]int{}
	rootsPerRec := map[int]int{}
	for _, inst := range group.Instances {
		ps := pages[inst.PageIndex]
		for _, r := range inst.Section.Records {
			roots := ps.Page.Forest(r.Start, r.End)
			if len(roots) == 0 {
				continue
			}
			startCount[mining.RootSignature(roots[0])]++
			for _, root := range roots[1:] {
				interiorCount[mining.RootSignature(root)]++
			}
			rootsPerRec[len(roots)]++
		}
	}
	// A signature seen both at starts and inside records counts as a start
	// only when it starts records at least as often.
	for sig, n := range startCount {
		if interiorCount[sig] <= n {
			w.Sep.StartSigs = append(w.Sep.StartSigs, sig)
		}
	}
	sort.Strings(w.Sep.StartSigs)
	for sig := range interiorCount {
		if !containsString(w.Sep.StartSigs, sig) {
			w.Sep.InteriorSigs = append(w.Sep.InteriorSigs, sig)
		}
	}
	sort.Strings(w.Sep.InteriorSigs)
	if k, uniform := uniformKey(rootsPerRec); uniform && k > 1 {
		w.Sep.RootsPerRecord = k
	}

	// --- LBMs / RBMs: majority vote over cleaned texts ---
	lbmCount := map[string]int{}
	rbmCount := map[string]int{}
	for _, inst := range group.Instances {
		ps := pages[inst.PageIndex]
		if inst.Section.LBM >= 0 {
			lbmCount[dse.CleanLine(&ps.Page.Lines[inst.Section.LBM], ps.Query)]++
		}
		if inst.Section.RBM >= 0 {
			rbmCount[dse.CleanLine(&ps.Page.Lines[inst.Section.RBM], ps.Query)]++
		}
	}
	w.LBMs = keysByCount(lbmCount)
	w.RBMs = keysByCount(rbmCount)

	// --- attributes for family construction ---
	attrCount := map[layout.TextAttr]int{}
	for _, inst := range group.Instances {
		ps := pages[inst.PageIndex]
		if inst.Section.LBM >= 0 {
			for _, a := range ps.Page.Lines[inst.Section.LBM].Attrs {
				attrCount[a]++
			}
		}
	}
	w.LBMAttrs = attrsByCount(attrCount, len(group.Instances))
	inside := 0
	voters := 0
	for _, inst := range group.Instances {
		if inst.Section.LBM < 0 {
			continue
		}
		ps := pages[inst.PageIndex]
		sub := ps.Page.SectionRoot(inst.Section.Start, inst.Section.End)
		if sub == nil {
			continue
		}
		voters++
		if first, _, ok := ps.Page.Span(sub); ok && inst.Section.LBM >= first {
			inside++
		}
	}
	w.LBMInside = voters > 0 && inside*2 > voters
	recAttrs := map[layout.TextAttr]bool{}
	for _, inst := range group.Instances {
		ps := pages[inst.PageIndex]
		for _, r := range inst.Section.Records {
			for i := r.Start; i < r.End; i++ {
				for _, a := range ps.Page.Lines[i].Attrs {
					recAttrs[a] = true
				}
			}
		}
	}
	for a := range recAttrs {
		w.RecordAttrs = append(w.RecordAttrs, a)
	}
	sortAttrs(w.RecordAttrs)
	return w
}

// mergeCompactPaths merges instance paths: the most common compatible tag
// sequence wins and per-step sibling counts take the element-wise median.
func mergeCompactPaths(prefs []dom.CompactPath) dom.CompactPath {
	if len(prefs) == 0 {
		return nil
	}
	// Group by tag sequence.
	byTags := map[string][]dom.CompactPath{}
	var order []string
	for _, p := range prefs {
		k := tagsKey(p)
		if _, ok := byTags[k]; !ok {
			order = append(order, k)
		}
		byTags[k] = append(byTags[k], p)
	}
	bestKey := order[0]
	for _, k := range order[1:] {
		if len(byTags[k]) > len(byTags[bestKey]) {
			bestKey = k
		}
	}
	groupPaths := byTags[bestKey]
	merged := make(dom.CompactPath, len(groupPaths[0]))
	copy(merged, groupPaths[0])
	for i := range merged {
		counts := make([]int, 0, len(groupPaths))
		for _, p := range groupPaths {
			counts = append(counts, p[i].SBefore)
		}
		sort.Ints(counts)
		merged[i].SBefore = counts[len(counts)/2]
	}
	return merged
}

func tagsKey(p dom.CompactPath) string {
	k := ""
	for _, s := range p {
		k += "{" + s.Tag + "}"
	}
	return k
}

// uniformKey reports the dominant key of an int histogram and whether it
// accounts for at least 80% of the observations.
func uniformKey(m map[int]int) (int, bool) {
	total, best, bestN := 0, 0, -1
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		total += m[k]
		if m[k] > bestN {
			best, bestN = k, m[k]
		}
	}
	if total == 0 {
		return 0, false
	}
	return best, bestN*5 >= total*4
}

func keysByCount(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if m[keys[i]] != m[keys[j]] {
			return m[keys[i]] > m[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}

func attrsByCount(m map[layout.TextAttr]int, total int) []layout.TextAttr {
	var out []layout.TextAttr
	for a, n := range m {
		if n*2 >= total { // present on at least half the instances
			out = append(out, a)
		}
	}
	sortAttrs(out)
	return out
}

func sortAttrs(attrs []layout.TextAttr) {
	sort.Slice(attrs, func(i, j int) bool {
		a, b := attrs[i], attrs[j]
		if a.Font != b.Font {
			return a.Font < b.Font
		}
		if a.Size != b.Size {
			return a.Size < b.Size
		}
		if a.Style != b.Style {
			return a.Style < b.Style
		}
		return a.Color < b.Color
	})
}

// attrsDisjoint reports whether no attribute of a appears in b.
func attrsDisjoint(a, b []layout.TextAttr) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return false
			}
		}
	}
	return true
}
