package wrapper

import (
	"strings"
	"sync"
	"sync/atomic"

	"mse/internal/dse"
	"mse/internal/layout"
	"mse/internal/visual"
)

// applyScratch is the per-Apply working state — most importantly the
// reusable line cleaner, whose query-term set and output buffer would
// otherwise be rebuilt for every boundary-marker comparison.  Pooled
// across requests.
type applyScratch struct {
	cleaner dse.LineCleaner
	// sigBuf is the reused root-signature buffer of partitionBySepCompiled.
	sigBuf []byte
	used   bool
}

var applyScratchPool = sync.Pool{New: func() any { return new(applyScratch) }}

// acquireApplyScratch returns a pooled per-application scratch; the caller
// puts it back into applyScratchPool once the application is done.
func acquireApplyScratch() *applyScratch {
	sc := applyScratchPool.Get().(*applyScratch)
	applyScratchStats.acquires.Add(1)
	if sc.used {
		applyScratchStats.reuses.Add(1)
	}
	sc.used = true
	return sc
}

// ApplyScratchStats are cumulative apply-scratch pool counters.
type ApplyScratchStats struct {
	Acquires uint64 `json:"acquires"`
	Reuses   uint64 `json:"reuses"`
}

var applyScratchStats struct {
	acquires atomic.Uint64
	reuses   atomic.Uint64
}

// ApplyScratchStatsSnapshot returns the current apply-scratch counters.
func ApplyScratchStatsSnapshot() ApplyScratchStats {
	return ApplyScratchStats{
		Acquires: applyScratchStats.acquires.Load(),
		Reuses:   applyScratchStats.reuses.Load(),
	}
}

// ExtractedRecord is one search result record pulled from a page.
type ExtractedRecord struct {
	// Lines are the record's content-line texts, in order.
	Lines []string
	// Links are the href values of anchors in the record.
	Links []string
	// Start and End give the record's line range on the page.
	Start, End int
}

// ExtractedSection is one extracted dynamic section with its records, the
// section-record relationship the paper requires wrappers to maintain.
type ExtractedSection struct {
	// Heading is the text of the section's left boundary marker, if any.
	Heading string
	// Order is the originating wrapper's section-schema position (-1 for
	// family-discovered hidden sections).
	Order int
	// Start and End give the section's line range on the page.
	Start, End int
	// Records are the section's records in order.
	Records []ExtractedRecord
	// FromFamily marks sections found via a section family rather than a
	// regular wrapper.
	FromFamily bool
}

// sigTag extracts the root tag from a structural signature.
func sigTag(sig string) string {
	if i := strings.IndexByte(sig, '('); i >= 0 {
		return sig[:i]
	}
	return sig
}

func blocksFromStarts(p *layout.Page, start, end int, starts []int) []visual.Block {
	if len(starts) == 0 {
		return nil
	}
	var out []visual.Block
	for i, s := range starts {
		if s < start {
			s = start
		}
		e := end
		if i+1 < len(starts) && starts[i+1] < e {
			e = starts[i+1]
		}
		if s < e {
			out = append(out, visual.Block{Page: p, Start: s, End: e})
		}
	}
	if len(out) > 0 {
		out[0].Start = start
	}
	return out
}

func extractRecords(p *layout.Page, blocks []visual.Block) []ExtractedRecord {
	out := make([]ExtractedRecord, 0, len(blocks))
	for _, b := range blocks {
		rec := ExtractedRecord{Start: b.Start, End: b.End}
		lines := b.Lines()
		if len(lines) > 0 {
			rec.Lines = make([]string, 0, len(lines))
		}
		nlinks := 0
		for i := range lines {
			nlinks += len(lines[i].Links)
		}
		if nlinks > 0 {
			rec.Links = make([]string, 0, nlinks)
		}
		for i := range lines {
			rec.Lines = append(rec.Lines, lines[i].Text)
			rec.Links = append(rec.Links, lines[i].Links...)
		}
		out = append(out, rec)
	}
	return out
}
