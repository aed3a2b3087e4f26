package mse

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"mse/internal/core"
	"mse/internal/dom"
	"mse/internal/editdist"
	"mse/internal/synth"
)

// TestDifferentialCacheAndParallelism is the end-to-end soundness check for
// this PR's performance work: for every engine of a small synthetic test
// bed, the pipeline run with tree-distance memoization on and the
// data-parallel stages fanned out over four workers must produce
// byte-identical wrappers and byte-identical extractions to the serial,
// uncached reference path.  Any fingerprint collision, cache corruption or
// scheduling-dependent arithmetic shows up as a diff here.
func TestDifferentialCacheAndParallelism(t *testing.T) {
	wasEnabled := editdist.CacheEnabled()
	defer editdist.SetCacheEnabled(wasEnabled)

	bed := synth.GenerateTestbed(synth.Config{Seed: 2006, Engines: 8, MultiSection: 4, Queries: 10})
	for ei, e := range bed {
		var samples []*core.SamplePage
		for q := 0; q < 5; q++ {
			gp := e.Page(q)
			samples = append(samples, &core.SamplePage{HTML: gp.HTML, Query: gp.Query})
		}
		run := func(cached bool, workers int) (wrapperJSON []byte, extractions [][]byte) {
			editdist.SetCacheEnabled(cached)
			opt := core.DefaultOptions()
			opt.Parallelism = workers
			ew, err := core.BuildWrapper(samples, opt)
			if err != nil {
				t.Fatalf("engine %d (cached=%v workers=%d): %v", ei, cached, workers, err)
			}
			wj, err := json.Marshal(ew)
			if err != nil {
				t.Fatalf("engine %d: marshal wrapper: %v", ei, err)
			}
			for q := 5; q < 10; q++ {
				gp := e.Page(q)
				sj, err := json.Marshal(ew.Extract(gp.HTML, gp.Query))
				if err != nil {
					t.Fatalf("engine %d page %d: marshal sections: %v", ei, q, err)
				}
				extractions = append(extractions, sj)
			}
			return wj, extractions
		}

		refWrapper, refPages := run(false, 1) // serial, uncached reference
		for _, variant := range []struct {
			name    string
			cached  bool
			workers int
		}{
			{"cached-serial", true, 1},
			{"cached-parallel", true, 4},
		} {
			gotWrapper, gotPages := run(variant.cached, variant.workers)
			if !bytes.Equal(gotWrapper, refWrapper) {
				t.Errorf("engine %d: %s wrapper differs from reference\nref: %s\ngot: %s",
					ei, variant.name, truncate(refWrapper), truncate(gotWrapper))
			}
			for pi := range refPages {
				if !bytes.Equal(gotPages[pi], refPages[pi]) {
					t.Errorf("engine %d page %d: %s extraction differs from reference\nref: %s\ngot: %s",
						ei, pi, variant.name, truncate(refPages[pi]), truncate(gotPages[pi]))
				}
			}
		}
	}
}

// TestDifferentialCacheHitRepeatability re-runs one engine's pipeline with a
// warm cache: answers served from resident entries must reproduce the
// first (cache-filling) run exactly.
func TestDifferentialCacheHitRepeatability(t *testing.T) {
	wasEnabled := editdist.CacheEnabled()
	defer editdist.SetCacheEnabled(wasEnabled)
	editdist.SetCacheEnabled(true)
	editdist.ResetCache()

	e := synth.NewEngine(2006, 1, true)
	var samples []*core.SamplePage
	for q := 0; q < 5; q++ {
		gp := e.Page(q)
		samples = append(samples, &core.SamplePage{HTML: gp.HTML, Query: gp.Query})
	}
	var first []byte
	for i := 0; i < 3; i++ {
		ew, err := core.BuildWrapper(samples, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		wj, err := json.Marshal(ew)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = wj
		} else if !bytes.Equal(wj, first) {
			t.Fatalf("run %d differs from the cache-filling run", i)
		}
	}
	if s := editdist.Stats(); s.Hits+s.Identical == 0 {
		t.Fatalf("warm runs never hit the cache: %+v", s)
	}
}

func truncate(b []byte) string {
	const max = 400
	if len(b) <= max {
		return string(b)
	}
	return fmt.Sprintf("%s... (%d bytes)", b[:max], len(b))
}

// TestDifferentialArenas is the soundness check for the zero-allocation
// fast path: for every engine of a small synthetic test bed, the pipeline
// run with pooled parse arenas, render scratches and apply scratches (the
// default) must produce byte-identical wrappers and extractions to the
// plain-allocator path restored by dom.SetArenasEnabled(false).  Interning
// bugs, arena aliasing, stale pooled state or a divergence in the
// byte-oriented text normalization all show up as a diff here.
func TestDifferentialArenas(t *testing.T) {
	was := dom.ArenasEnabled()
	defer dom.SetArenasEnabled(was)

	bed := synth.GenerateTestbed(synth.Config{Seed: 2006, Engines: 8, MultiSection: 4, Queries: 10})
	for ei, e := range bed {
		var samples []*core.SamplePage
		for q := 0; q < 5; q++ {
			gp := e.Page(q)
			samples = append(samples, &core.SamplePage{HTML: gp.HTML, Query: gp.Query})
		}
		run := func(arenas bool) (wrapperJSON []byte, extractions [][]byte) {
			dom.SetArenasEnabled(arenas)
			ew, err := core.BuildWrapper(samples, core.DefaultOptions())
			if err != nil {
				t.Fatalf("engine %d (arenas=%v): %v", ei, arenas, err)
			}
			wj, err := json.Marshal(ew)
			if err != nil {
				t.Fatalf("engine %d: marshal wrapper: %v", ei, err)
			}
			for q := 5; q < 10; q++ {
				gp := e.Page(q)
				sj, err := json.Marshal(ew.Extract(gp.HTML, gp.Query))
				if err != nil {
					t.Fatalf("engine %d page %d: marshal sections: %v", ei, q, err)
				}
				extractions = append(extractions, sj)
			}
			return wj, extractions
		}

		refWrapper, refPages := run(false) // plain-allocator reference
		// Two pooled runs back to back: the second reuses arenas and
		// scratches recycled by the first, so stale pooled state cannot
		// hide behind a cold pool.
		for round := 0; round < 2; round++ {
			gotWrapper, gotPages := run(true)
			if !bytes.Equal(gotWrapper, refWrapper) {
				t.Errorf("engine %d round %d: pooled wrapper differs from reference\nref: %s\ngot: %s",
					ei, round, truncate(refWrapper), truncate(gotWrapper))
			}
			for pi := range refPages {
				if !bytes.Equal(gotPages[pi], refPages[pi]) {
					t.Errorf("engine %d page %d round %d: pooled extraction differs from reference\nref: %s\ngot: %s",
						ei, pi, round, truncate(refPages[pi]), truncate(gotPages[pi]))
				}
			}
		}
	}
}

// TestDifferentialLeasedExtraction checks the serving-path lease contract:
// sections returned by ExtractLeasedObs must compare byte-identical before
// and after the lease is released, and repeated leased extractions of the
// same page through the recycled pools must reproduce each other exactly.
func TestDifferentialLeasedExtraction(t *testing.T) {
	e := synth.NewEngine(2006, 3, true)
	var samples []*core.SamplePage
	for q := 0; q < 5; q++ {
		gp := e.Page(q)
		samples = append(samples, &core.SamplePage{HTML: gp.HTML, Query: gp.Query})
	}
	ew, err := core.BuildWrapper(samples, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	gp := e.Page(7)
	var first []byte
	for i := 0; i < 5; i++ {
		sections, lease, err := ew.ExtractLeasedObs(context.Background(), gp.HTML, gp.Query, nil)
		if err != nil {
			t.Fatal(err)
		}
		before, err := json.Marshal(sections)
		if err != nil {
			t.Fatal(err)
		}
		lease.Release()
		lease.Release() // idempotent
		after, err := json.Marshal(sections)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("iteration %d: sections changed after lease release\nbefore: %s\nafter:  %s",
				i, truncate(before), truncate(after))
		}
		if first == nil {
			first = before
		} else if !bytes.Equal(before, first) {
			t.Fatalf("iteration %d differs from the first leased extraction", i)
		}
	}
}
