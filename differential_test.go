package mse

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"mse/internal/core"
	"mse/internal/editdist"
	"mse/internal/synth"
)

// TestDifferentialCacheAndParallelism is the end-to-end soundness check for
// the data-parallel pipeline stages: for every engine of a small synthetic
// test bed, the pipeline fanned out over four workers — with the shared
// tree-distance cache warmed by the serial run — must produce
// byte-identical wrappers and extractions to the serial run.  Any
// scheduling-dependent arithmetic or a cache entry raced into a wrong
// value shows up as a diff here.  The committed extraction digests
// (internal/serve TestExtractDigests) pin the serial output itself.
func TestDifferentialCacheAndParallelism(t *testing.T) {
	bed := synth.GenerateTestbed(synth.Config{Seed: 2006, Engines: 8, MultiSection: 4, Queries: 10})
	for ei, e := range bed {
		var samples []*core.SamplePage
		for q := 0; q < 5; q++ {
			gp := e.Page(q)
			samples = append(samples, &core.SamplePage{HTML: gp.HTML, Query: gp.Query})
		}
		run := func(workers int) (wrapperJSON []byte, extractions [][]byte) {
			opt := core.DefaultOptions()
			opt.Parallelism = workers
			ew, err := core.BuildWrapper(samples, opt)
			if err != nil {
				t.Fatalf("engine %d (workers=%d): %v", ei, workers, err)
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

		refWrapper, refPages := run(1) // serial reference
		gotWrapper, gotPages := run(4)
		if !bytes.Equal(gotWrapper, refWrapper) {
			t.Errorf("engine %d: parallel wrapper differs from serial\nref: %s\ngot: %s",
				ei, truncate(refWrapper), truncate(gotWrapper))
		}
		for pi := range refPages {
			if !bytes.Equal(gotPages[pi], refPages[pi]) {
				t.Errorf("engine %d page %d: parallel extraction differs from serial\nref: %s\ngot: %s",
					ei, pi, truncate(refPages[pi]), truncate(gotPages[pi]))
			}
		}
	}
}

// TestDifferentialCacheHitRepeatability re-runs one engine's pipeline with a
// warm cache: answers served from resident entries must reproduce the
// first (cache-filling) run exactly.
func TestDifferentialCacheHitRepeatability(t *testing.T) {
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
