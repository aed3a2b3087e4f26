package core

import (
	"fmt"
	"strings"
)

// WrapperHealth describes how one section wrapper behaved over a set of
// verification pages.
type WrapperHealth struct {
	// Order identifies the section wrapper (its schema position).
	Order int
	// Fired counts the pages on which the wrapper extracted a section.
	Fired int
	// Records is the total number of records it extracted.
	Records int
	// EmptySections counts extractions that produced no records — a
	// strong drift signal.
	EmptySections int
}

// ValidationReport is the outcome of EngineWrapper.Validate: a per-wrapper
// health summary over fresh result pages.  Search engines change their
// templates over time; the paper motivates wrappers for the "automatic
// construction and maintenance of metasearch engines", and this report is
// the maintenance half — it tells an operator when a wrapper needs to be
// retrained.
type ValidationReport struct {
	Pages    int
	Wrappers []WrapperHealth
	// FamilySections is the number of sections the families extracted in
	// total (families have no fixed per-page expectation).
	FamilySections int
}

// Healthy reports whether every section wrapper fired on at least the
// given fraction of pages (sections that are sometimes absent are normal;
// a wrapper that never fires is stale).
func (r *ValidationReport) Healthy(minFireRate float64) bool {
	for _, w := range r.Wrappers {
		if float64(w.Fired) < minFireRate*float64(r.Pages) {
			return false
		}
		if w.Fired > 0 && w.EmptySections == w.Fired {
			return false // fires but extracts nothing: template drifted
		}
	}
	return true
}

// String renders a human-readable summary.
func (r *ValidationReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "validated over %d pages; %d section wrappers, %d family sections\n",
		r.Pages, len(r.Wrappers), r.FamilySections)
	for _, w := range r.Wrappers {
		fmt.Fprintf(&sb, "  wrapper %d: fired %d/%d, %d records, %d empty\n",
			w.Order, w.Fired, r.Pages, w.Records, w.EmptySections)
	}
	return sb.String()
}

// Validate applies the wrapper to fresh result pages through Extract — the
// same compiled, pooled path serving uses — and reports each section
// wrapper's health.  It never modifies the wrapper.
func (ew *EngineWrapper) Validate(pages []*SamplePage) *ValidationReport {
	report := &ValidationReport{Pages: len(pages)}
	health := map[int]*WrapperHealth{}
	for _, w := range ew.Wrappers {
		health[w.Order] = &WrapperHealth{Order: w.Order}
	}
	for _, sp := range pages {
		for _, s := range ew.Extract(sp.HTML, sp.Query) {
			if s.FromFamily {
				report.FamilySections++
				continue
			}
			h, ok := health[s.Order]
			if !ok {
				h = &WrapperHealth{Order: s.Order}
				health[s.Order] = h
			}
			h.Fired++
			h.Records += len(s.Records)
			if len(s.Records) == 0 {
				h.EmptySections++
			}
		}
	}
	for _, w := range ew.Wrappers {
		report.Wrappers = append(report.Wrappers, *health[w.Order])
	}
	return report
}
