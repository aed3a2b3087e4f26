package synth

import "fmt"

// Template drift: the mutation a live search engine performs when its
// result-page template is redesigned.  A wrapper trained on the old
// template keeps "succeeding" against the new one — it just extracts
// fewer sections and records, or nothing — which is exactly the silent
// failure mode drift detection must notice.  Drifted produces the
// post-redesign engine: same record *content* distribution (same seed,
// same section schemas, same query → record-count draws), different
// *markup*.

// Drifted returns a copy of the engine whose template has been redesigned:
// the markup style rotates to the next idiom (table → div → list → dl →
// table), every section's heading switches to a different heading style,
// and the record format changes shape (bold/number-prefix toggles,
// single-row layout).  The engine seed is unchanged, so page i of the
// drifted engine answers the same query as page i of the original and
// draws its records from the same distribution — only the surrounding
// tag structure differs.  The receiver is not modified.  Drifted is a pure
// function: calling it twice yields identical engines.
func (e *Engine) Drifted() *Engine {
	old := e.Schema
	ps := &PageSchema{
		SiteName:       old.SiteName,
		Style:          Style((int(old.Style) + 1) % numStyles),
		NavLinks:       append([]string(nil), old.NavLinks...),
		FooterLines:    append([]string(nil), old.FooterLines...),
		HasResultCount: old.HasResultCount,
		HasSearchBox:   old.HasSearchBox,
		// Flat layouts only exist for TableStyle; the rotated style drops
		// the shared table, which is itself a drastic template change.
		Flat: false,
	}
	for _, oss := range old.Sections {
		ss := *oss // copy; SectionSchema holds only value fields
		ss.HeadingStyle = HeadingStyle((int(oss.HeadingStyle) + 1) % numHeadingStyles)
		// Redesigns habitually restyle the records: toggle the ornamental
		// format bits the old wrapper keyed its tag structures on.
		ss.Format.TitleBold = !oss.Format.TitleBold
		ss.Format.NumberPrefix = !oss.Format.NumberPrefix
		// MultiRow only renders under TableStyle; force the single-row
		// shape so the rotation is meaningful for every style.
		ss.Format.MultiRow = false
		ps.Sections = append(ps.Sections, &ss)
	}
	return &Engine{ID: e.ID, Name: e.Name, Schema: ps, seed: e.seed}
}

// Revealed returns a copy of the engine with every hidden section made
// permanent: sections that appeared only for some queries (Appear < 1) or
// only for one query class (QueryClass >= 0) now appear on every page.
// This is the "hidden section appears mid-run" drift: the engine starts
// serving a section its wrapper never saw during training, so ground-truth
// recall drops even though the old sections still extract — a quieter
// drift signature than a full redesign.  The receiver is not modified and
// Revealed is a pure function.
func (e *Engine) Revealed() *Engine {
	old := e.Schema
	ps := &PageSchema{
		SiteName:       old.SiteName,
		Style:          old.Style,
		NavLinks:       append([]string(nil), old.NavLinks...),
		FooterLines:    append([]string(nil), old.FooterLines...),
		HasResultCount: old.HasResultCount,
		HasSearchBox:   old.HasSearchBox,
		Flat:           old.Flat,
		CJK:            old.CJK,
		DeepNesting:    old.DeepNesting,
	}
	for _, oss := range old.Sections {
		ss := *oss // copy; SectionSchema holds only value fields
		ss.Appear = 1.0
		ss.QueryClass = -1
		ps.Sections = append(ps.Sections, &ss)
	}
	return &Engine{ID: e.ID, Name: e.Name, Schema: ps, seed: e.seed}
}

// ScheduledEngine models an engine redesigning its template mid-run, any
// number of times, over virtual time (the engine's own query index): the
// base template serves queries [0, c1), the first cutover's template
// serves [c1, c2), and so on.  One Drifted() cutover is the
// drift-then-recover fixture of the self-healing tests: the served
// traffic itself carries everything a relearner needs to re-learn the new
// template.  Every cutover can be any derived engine —
// Drifted() redesigns, Revealed() hidden-section appearances, or stacked
// combinations — so a scenario can replay a multi-year redesign history
// against one wrapper lifecycle.
type ScheduledEngine struct {
	froms   []int // ascending; froms[0] == 0
	engines []*Engine
}

// NewScheduledEngine starts a schedule with the base template serving from
// query index 0.
func NewScheduledEngine(base *Engine) *ScheduledEngine {
	return &ScheduledEngine{froms: []int{0}, engines: []*Engine{base}}
}

// Cutover appends a template switch: pages at or past fromQuery render
// with e (until a later cutover).  Cutovers must be added in strictly
// increasing virtual-time order.
func (s *ScheduledEngine) Cutover(fromQuery int, e *Engine) error {
	if fromQuery <= s.froms[len(s.froms)-1] {
		return fmt.Errorf("synth: cutover at %d not after previous phase start %d",
			fromQuery, s.froms[len(s.froms)-1])
	}
	s.froms = append(s.froms, fromQuery)
	s.engines = append(s.engines, e)
	return nil
}

// Phases returns the number of template phases (1 + cutovers).
func (s *ScheduledEngine) Phases() int { return len(s.engines) }

// EngineAt returns the engine template live at query index q and its phase
// ordinal (0 = base template).
func (s *ScheduledEngine) EngineAt(q int) (*Engine, int) {
	i := len(s.froms) - 1
	for i > 0 && q < s.froms[i] {
		i--
	}
	return s.engines[i], i
}

// Page generates result page queryIdx under the template live at that
// index; ground truth tracks the live template across every cutover.
func (s *ScheduledEngine) Page(queryIdx int) *GenPage {
	e, _ := s.EngineAt(queryIdx)
	return e.Page(queryIdx)
}
