package wrapper

import (
	"sort"

	"mse/internal/dom"
	"mse/internal/layout"
)

// FamilyType distinguishes the two section-family classes of Section 5.8.
type FamilyType int

const (
	// Type1 families share pref and seps; member sections are siblings
	// under one subtree, delimited by boundary lines with a distinctive
	// text attribute (Figure 10).
	Type1 FamilyType = 1
	// Type2 families share seps and have prefs with a common prefix and
	// common suffix; member sections are sibling subtrees under the node
	// located by the common prefix (Figure 11).
	Type2 FamilyType = 2
)

// Family is a section wrapper family: a class of section schemas sharing
// structure, able to extract hidden sections that occurred on no sample
// page.
type Family struct {
	Type FamilyType
	// Pref is the full pref (Type 1) or the common prefix ppref (Type 2).
	Pref dom.CompactPath
	// SPref is the common suffix spref (Type 2 only); its first step's
	// sibling count is the wildcard that distinguishes member sections.
	SPref dom.CompactPath
	// Sep partitions each member section into records.
	Sep Separator
	// LBMAttrs is the shared text-attribute set of the members' boundary
	// markers (aLBMs).
	LBMAttrs []layout.TextAttr
	// KnownLBMs are the member wrappers' boundary texts (for labeling).
	KnownLBMs []string
}

// BuildFamilies scans the section wrappers for Type 1 and Type 2 families
// (§5.8).  Wrappers combined into a family are removed from the returned
// wrapper list, as the paper prescribes.
func BuildFamilies(wrappers []*SectionWrapper) ([]*SectionWrapper, []*Family) {
	var families []*Family
	remaining := append([]*SectionWrapper(nil), wrappers...)

	remaining, families = buildType1(remaining, families)
	remaining, families = buildType2(remaining, families)
	remaining = pruneInsideFamilies(remaining, families)
	return remaining, families
}

// pruneInsideFamilies removes regular wrappers whose pref descends into a
// Type 1 family's subtree: the family owns that whole region (it splits it
// at boundary-marker lines), and a leftover row-level wrapper would
// otherwise shadow the family's correct extraction with a fragment.
func pruneInsideFamilies(ws []*SectionWrapper, families []*Family) []*SectionWrapper {
	drop := map[*SectionWrapper]bool{}
	for _, f := range families {
		if f.Type != Type1 {
			continue
		}
		for _, w := range ws {
			if len(w.Pref) <= len(f.Pref) {
				continue
			}
			inside := true
			for i := range f.Pref {
				if w.Pref[i] != f.Pref[i] {
					inside = false
					break
				}
			}
			if inside {
				drop[w] = true
			}
		}
	}
	return without(ws, drop)
}

// familyEligible checks the shared §5.8 precondition: the wrapper has
// boundary-marker attributes that are distinct from every record-line
// attribute.
func familyEligible(w *SectionWrapper) bool {
	return len(w.LBMAttrs) > 0 && attrsDisjoint(w.LBMAttrs, w.RecordAttrs)
}

func buildType1(ws []*SectionWrapper, families []*Family) ([]*SectionWrapper, []*Family) {
	type key struct {
		pref  string
		attrs string
	}
	groups := map[key][]*SectionWrapper{}
	var order []key
	for _, w := range ws {
		if !familyEligible(w) || !w.LBMInside {
			continue
		}
		k := key{pref: w.Pref.String(), attrs: attrsKey(w.LBMAttrs)}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], w)
	}
	drop := map[*SectionWrapper]bool{}
	for _, k := range order {
		g := groups[k]
		if len(g) < 2 || !sepsCompatible(g) {
			continue
		}
		fam := &Family{
			Type:     Type1,
			Pref:     g[0].Pref,
			Sep:      mergeSeps(g),
			LBMAttrs: g[0].LBMAttrs,
		}
		for _, w := range g {
			fam.KnownLBMs = append(fam.KnownLBMs, w.LBMs...)
			drop[w] = true
		}
		families = append(families, fam)
	}
	return without(ws, drop), families
}

// sepsCompatible reports whether the group's separators describe one
// record grammar: the sets of record-start signatures must overlap (the
// paper's "same seps", allowing for estimation noise on sections whose
// sample instances were small).
func sepsCompatible(g []*SectionWrapper) bool {
	for _, w := range g[1:] {
		shared := false
		for _, sig := range w.Sep.StartSigs {
			if containsString(g[0].Sep.StartSigs, sig) {
				shared = true
				break
			}
		}
		if !shared {
			return false
		}
	}
	return true
}

// mergeSeps unions the group's separators.  A signature seen starting
// records anywhere counts as a start — sections with many records give
// better partition evidence than sections whose instances happened to be
// tiny.
func mergeSeps(g []*SectionWrapper) Separator {
	var out Separator
	for _, w := range g {
		for _, sig := range w.Sep.StartSigs {
			if !containsString(out.StartSigs, sig) {
				out.StartSigs = append(out.StartSigs, sig)
			}
		}
	}
	for _, w := range g {
		for _, sig := range w.Sep.InteriorSigs {
			if !containsString(out.StartSigs, sig) && !containsString(out.InteriorSigs, sig) {
				out.InteriorSigs = append(out.InteriorSigs, sig)
			}
		}
	}
	sort.Strings(out.StartSigs)
	sort.Strings(out.InteriorSigs)
	return out
}

func buildType2(ws []*SectionWrapper, families []*Family) ([]*SectionWrapper, []*Family) {
	type key struct {
		tags  string
		attrs string
	}
	groups := map[key][]*SectionWrapper{}
	var order []key
	for _, w := range ws {
		if !familyEligible(w) || len(w.Pref) == 0 || w.LBMInside {
			continue
		}
		k := key{tags: tagsKey(w.Pref), attrs: attrsKey(w.LBMAttrs)}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], w)
	}
	drop := map[*SectionWrapper]bool{}
	for _, k := range order {
		g := groups[k]
		if len(g) < 2 || !sepsCompatible(g) {
			continue
		}
		j, ok := singleDivergence(g)
		if !ok {
			continue
		}
		fam := &Family{
			Type:     Type2,
			Pref:     append(dom.CompactPath(nil), g[0].Pref[:j]...),
			SPref:    append(dom.CompactPath(nil), g[0].Pref[j:]...),
			Sep:      mergeSeps(g),
			LBMAttrs: g[0].LBMAttrs,
		}
		for _, w := range g {
			fam.KnownLBMs = append(fam.KnownLBMs, w.LBMs...)
			drop[w] = true
		}
		families = append(families, fam)
	}
	return without(ws, drop), families
}

// singleDivergence finds the unique compact-path step index at which the
// group's prefs differ in sibling count, confirming the common-prefix /
// common-suffix structure of a Type 2 family.  Identical paths use the
// final step as the wildcard (sibling subtrees whose sample offsets
// coincided); paths differing at several steps fail.
func singleDivergence(g []*SectionWrapper) (int, bool) {
	n := len(g[0].Pref)
	divergent := -1
	for i := 0; i < n; i++ {
		same := true
		for _, w := range g[1:] {
			if w.Pref[i].SBefore != g[0].Pref[i].SBefore {
				same = false
				break
			}
		}
		if !same {
			if divergent >= 0 {
				return 0, false
			}
			divergent = i
		}
	}
	if divergent < 0 {
		// Identical prefs: the member sections are sibling subtrees whose
		// sample offsets coincided (or collapsed under median merging);
		// the wildcard is the final sibling offset.
		return n - 1, true
	}
	return divergent, true
}

func without(ws []*SectionWrapper, drop map[*SectionWrapper]bool) []*SectionWrapper {
	out := make([]*SectionWrapper, 0, len(ws))
	for _, w := range ws {
		if !drop[w] {
			out = append(out, w)
		}
	}
	return out
}

func attrsKey(attrs []layout.TextAttr) string {
	k := ""
	for _, a := range attrs {
		k += a.Font + "|" + string(rune('0'+a.Size%10)) + string(rune('a'+a.Size/10)) +
			"|" + string(rune('0'+a.Style)) + "|" + a.Color + ";"
	}
	return k
}
