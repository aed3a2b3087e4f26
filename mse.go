// Package mse is an implementation of MSE (Multiple Section Extraction),
// the wrapper-induction system of
//
//	Hongkun Zhao, Weiyi Meng, Clement Yu.
//	"Automatic Extraction of Dynamic Record Sections From Search Engine
//	Result Pages."  VLDB 2006.
//
// Given a handful of sample result pages from one search engine, MSE
// builds a wrapper that extracts every dynamic section — and the search
// result records (SRRs) inside each section — from any result page of that
// engine, while keeping the section-record relationship.  Section families
// let the wrapper extract hidden sections that never occurred on a sample
// page.
//
// # Quick start
//
//	samples := []mse.SamplePage{
//		{HTML: page1HTML, Query: []string{"knee", "injury"}},
//		{HTML: page2HTML, Query: []string{"jazz", "guitar"}},
//		// ... typically five sample pages
//	}
//	w, err := mse.Train(samples, nil)
//	if err != nil { ... }
//	sections := w.Extract(newPageHTML, []string{"salt", "thirst"})
//	for _, s := range sections {
//		fmt.Println("section:", s.Heading)
//		for _, r := range s.Records {
//			fmt.Println("  record:", r.Lines[0])
//		}
//	}
//
// Wrappers serialize to JSON with Wrapper.MarshalJSON / LoadWrapper, so a
// metasearch engine or deep-web crawler can build them once and apply them
// cheaply afterwards.
package mse

import (
	"encoding/json"
	"fmt"

	"mse/internal/annotate"
	"mse/internal/core"
)

// SamplePage is one training page: its HTML source and the query terms
// that retrieved it (the terms are treated as dynamic content during
// boundary-marker discovery).
type SamplePage struct {
	HTML  string
	Query []string
}

// Section is one extracted dynamic section.  Records are in page order;
// Heading is the text of the section's left boundary marker ("News",
// "Sponsored Links", …) when one exists.
type Section = core.Section

// Record is one extracted search result record: its content-line texts
// and the link targets it contains.
type Record = core.Record

// Options tune the pipeline; the zero value is not valid — use
// DefaultOptions and modify fields.  Each parameter has exactly one
// field, so setting opt.W moves the threshold of both refinement and
// granularity resolution.  All parameters default to the paper's values
// (W = 1.8, equal feature weights).
type Options = core.Options

// DefaultOptions returns the paper's parameter settings.
func DefaultOptions() Options { return core.DefaultOptions() }

// Wrapper is a trained extraction wrapper for one search engine: an
// ordered list of section wrappers plus the section families derived from
// them.  A Wrapper is immutable after Train/LoadWrapper; Extract,
// Validate and MarshalJSON are safe for concurrent use.
type Wrapper struct {
	ew  *core.EngineWrapper
	opt Options
}

// Train runs the full MSE pipeline (Steps 1-9 of the paper) over the
// sample pages.  At least two sample pages are required; the paper uses
// five.  opt may be nil for defaults.
func Train(samples []SamplePage, opt *Options) (*Wrapper, error) {
	o := DefaultOptions()
	if opt != nil {
		o = *opt
	}
	in := make([]*core.SamplePage, len(samples))
	for i := range samples {
		in[i] = &core.SamplePage{HTML: samples[i].HTML, Query: samples[i].Query}
	}
	ew, err := core.BuildWrapper(in, o)
	if err != nil {
		return nil, err
	}
	return &Wrapper{ew: ew, opt: o}, nil
}

// Extract applies the wrapper to a new result page.  query lists the
// query terms used to retrieve the page and may be nil when unknown.
// Sections come back in page order with their records.
func (w *Wrapper) Extract(html string, query []string) []*Section {
	return w.ew.Extract(html, query)
}

// SectionCount returns the number of section schemas the wrapper extracts
// directly (members folded into families are not counted).
func (w *Wrapper) SectionCount() int { return len(w.ew.Wrappers) }

// FamilyCount returns the number of section families (each able to match
// arbitrarily many sibling sections, including hidden ones).
func (w *Wrapper) FamilyCount() int { return len(w.ew.Families) }

// MarshalJSON serializes the wrapper for storage.
func (w *Wrapper) MarshalJSON() ([]byte, error) {
	return json.Marshal(w.ew)
}

// LoadWrapper restores a wrapper serialized with MarshalJSON.  opt may be
// nil for defaults.
func LoadWrapper(data []byte, opt *Options) (*Wrapper, error) {
	o := DefaultOptions()
	if opt != nil {
		o = *opt
	}
	var ew core.EngineWrapper
	if err := json.Unmarshal(data, &ew); err != nil {
		return nil, fmt.Errorf("mse: loading wrapper: %w", err)
	}
	ew.SetOptions(o)
	return &Wrapper{ew: &ew, opt: o}, nil
}

// ValidationReport summarizes wrapper health over fresh pages; see
// core.ValidationReport.
type ValidationReport = core.ValidationReport

// Validate applies the wrapper to fresh result pages and reports, per
// section wrapper, how often it fired and how many records it extracted —
// the signal a metasearch operator watches to know when an engine's
// template has drifted and the wrapper needs retraining.
func (w *Wrapper) Validate(pages []SamplePage) *ValidationReport {
	in := make([]*core.SamplePage, len(pages))
	for i := range pages {
		in[i] = &core.SamplePage{HTML: pages[i].HTML, Query: pages[i].Query}
	}
	return w.ew.Validate(in)
}

// Unit is one annotated data unit of a record (title, snippet, display
// URL, price, date, rank, more-trailer); see internal/annotate.
type Unit = annotate.Unit

// UnitType classifies a data unit.
type UnitType = annotate.UnitType

// Exported unit types.
const (
	UnitTitle      = annotate.Title
	UnitSnippet    = annotate.Snippet
	UnitDisplayURL = annotate.DisplayURL
	UnitPrice      = annotate.Price
	UnitDate       = annotate.Date
	UnitRank       = annotate.Rank
	UnitMore       = annotate.More
)

// Annotate identifies the data units inside an extracted record — the
// third task of complete web data extraction (the paper's §1 framing:
// section extraction, record extraction, data annotation).
func Annotate(rec Record) []Unit {
	return annotate.Record(rec)
}

// TitleOf returns the record's title text, or "" when no title is found.
func TitleOf(rec Record) string {
	return annotate.TitleOf(rec)
}
