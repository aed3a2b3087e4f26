package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mse/internal/dom"
	"mse/internal/layout"
)

// TestStressExtract storms a limited server with concurrent /extract
// requests under aggressive client deadlines.  Whatever mix of successes,
// sheds and cancellations results, the server must answer every request
// with one of 200/429/499/503, survive the storm, and return every pooled
// arena and scratch.  `make stress` runs it under -race with
// MSE_STRESS_N=300; the in-tree default keeps tier-1 fast.
func TestStressExtract(t *testing.T) {
	n := 48
	if s := os.Getenv("MSE_STRESS_N"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("MSE_STRESS_N=%q: %v", s, err)
		}
		n = v
	}
	reg, eng := testRegistry(t)
	// Two slots and a queue budget shorter than one extraction: a healthy
	// run sees all of 200 (admitted), 429 (shed) and client-side deadline
	// failures; the exact mix is machine-dependent and not asserted.
	reg.SetLimits(2, 5*time.Millisecond)
	srv := httptest.NewServer(reg.Handler())

	arenaBefore := dom.ArenaStatsSnapshot()
	scratchBefore := layout.ScratchStatsSnapshot()

	// A storm of the demo engine's schema but with an order of magnitude
	// more records per section, so each admitted extraction holds its slot
	// long enough for the queue to back up.  The shared engine's schema is
	// restored afterwards — other tests generate pages from it.
	type bounds struct{ min, max int }
	saved := make([]bounds, len(eng.Schema.Sections))
	for i, ss := range eng.Schema.Sections {
		saved[i] = bounds{ss.MinRecords, ss.MaxRecords}
		ss.MinRecords, ss.MaxRecords = 300, 300
	}
	html := eng.Page(31).HTML
	for i, ss := range eng.Schema.Sections {
		ss.MinRecords, ss.MaxRecords = saved[i].min, saved[i].max
	}
	var ok200, shed, canceled, clientErr, other atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Deadlines from 3ms (dies mid-flight) to 2s (comfortably
			// completes), cycling so every run exercises every outcome.
			deadline := time.Duration(3+97*(i%20)) * time.Millisecond
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost,
				srv.URL+"/extract?engine=demo", strings.NewReader(html))
			if err != nil {
				other.Add(1)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				// The client gave up first; the server side must still
				// clean up, which the pool balance below proves.
				clientErr.Add(1)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				ok200.Add(1)
			case http.StatusTooManyRequests:
				shed.Add(1)
			case statusClientClosedRequest, http.StatusServiceUnavailable:
				canceled.Add(1)
			default:
				other.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if other.Load() != 0 {
		t.Fatalf("unexpected status codes on %d request(s); 200=%d 429=%d 499/503=%d client-err=%d",
			other.Load(), ok200.Load(), shed.Load(), canceled.Load(), clientErr.Load())
	}
	t.Logf("storm of %d: 200=%d 429=%d 499/503=%d client-err=%d",
		n, ok200.Load(), shed.Load(), canceled.Load(), clientErr.Load())

	// The server must still be fully functional after the storm.
	resp, err := http.Post(srv.URL+"/extract?engine=demo", "text/html", strings.NewReader(html))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-storm request status = %d, want 200", resp.StatusCode)
	}

	// Close waits for the handlers abandoned by their clients to finish,
	// after which every pooled acquisition must have been released.
	srv.Close()
	arenaAfter := dom.ArenaStatsSnapshot()
	if acq, rel := arenaAfter.Acquires-arenaBefore.Acquires, arenaAfter.Releases-arenaBefore.Releases; acq != rel {
		t.Fatalf("arena leak across storm: %d acquired, %d released", acq, rel)
	}
	scratchAfter := layout.ScratchStatsSnapshot()
	if acq, rel := scratchAfter.Acquires-scratchBefore.Acquires, scratchAfter.Releases-scratchBefore.Releases; acq != rel {
		t.Fatalf("render scratch leak across storm: %d acquired, %d released", acq, rel)
	}

	if fails := reg.metrics.panics.Value(); fails != 0 {
		t.Fatalf("panics_total = %d during storm, want 0", fails)
	}
}

// TestStressExtractMixedCache storms a cache-enabled server with a mix of
// single and batch requests over a small page set, under tight admission
// limits, and checks the cache-era invariants on top of the originals:
// the resident byte total never exceeds the bound (sampled live by a
// watcher goroutine, and enforced by a deliberately tiny budget that
// forces evictions), concurrent identical misses collapse (singleflight
// counter > 0), every pooled arena and scratch comes back, and the only
// statuses seen are 200/429/499/503.  `make stress` runs it under -race
// via the shared TestStressExtract prefix.
func TestStressExtractMixedCache(t *testing.T) {
	n := 48
	if s := os.Getenv("MSE_STRESS_N"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("MSE_STRESS_N=%q: %v", s, err)
		}
		n = v
	}
	reg, eng := testRegistry(t)
	reg.SetLimits(4, 50*time.Millisecond)
	// Big enough per shard (bound/64) that normal result bodies are
	// admitted — the bound check must be exercised by resident entries,
	// not trivially satisfied by an always-empty cache.
	const cacheBound = 2 << 20
	reg.SetCache(cacheBound)
	srv := httptest.NewServer(reg.Handler())

	arenaBefore := dom.ArenaStatsSnapshot()
	scratchBefore := layout.ScratchStatsSnapshot()

	// Normal-size pages: these cache, so the storm mixes misses, hits and
	// within-batch duplicates.
	pages := make([]string, 6)
	queries := make([]string, 6)
	for i := range pages {
		gp := eng.Page(40 + i)
		pages[i] = gp.HTML
		queries[i] = strings.Join(gp.Query, "+")
	}
	// Live byte-bound watcher: samples the resident total while the storm
	// runs; insertion-before-bound bugs show up here, not just at the end.
	stopWatch := make(chan struct{})
	var boundViolations atomic.Int64
	go func() {
		for {
			select {
			case <-stopWatch:
				return
			default:
			}
			if b := reg.Cache().Bytes(); b > cacheBound {
				boundViolations.Add(1)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var ok200, shed, canceled, clientErr, other atomic.Int64
	classify := func(status int) {
		switch status {
		case http.StatusOK:
			ok200.Add(1)
		case http.StatusTooManyRequests:
			shed.Add(1)
		case statusClientClosedRequest, http.StatusServiceUnavailable:
			canceled.Add(1)
		default:
			other.Add(1)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			deadline := time.Duration(5+95*(i%15)) * time.Millisecond
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()
			p := i % len(pages)
			if i%3 == 0 {
				// Batch request: one fresh page plus a duplicate of it and a
				// neighbour — within-batch dedupe and cross-batch collapse.
				items := []map[string]any{
					{"q": queries[p], "html": pages[p]},
					{"q": queries[p], "html": pages[p]},
					{"q": queries[(p+1)%len(pages)], "html": pages[(p+1)%len(pages)]},
				}
				body, _ := json.Marshal(map[string]any{"items": items})
				req, err := http.NewRequestWithContext(ctx, http.MethodPost,
					srv.URL+"/extract/batch?engine=demo", strings.NewReader(string(body)))
				if err != nil {
					other.Add(1)
					return
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					clientErr.Add(1)
					return
				}
				var br batchResponse
				derr := json.NewDecoder(resp.Body).Decode(&br)
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					classify(resp.StatusCode)
					return
				}
				if derr != nil {
					// A 200 whose body stops mid-decode is a client
					// timeout when the deadline expired while reading it;
					// only a body that fails with the deadline still open
					// is the server's fault.
					if ctx.Err() != nil {
						clientErr.Add(1)
					} else {
						other.Add(1)
					}
					return
				}
				for _, r := range br.Results {
					classify(r.Status)
				}
				return
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodPost,
				srv.URL+"/extract?engine=demo&q="+queries[p], strings.NewReader(pages[p]))
			if err != nil {
				other.Add(1)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				clientErr.Add(1)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			classify(resp.StatusCode)
		}(i)
	}
	wg.Wait()
	if other.Load() != 0 {
		t.Fatalf("unexpected status codes on %d item(s); 200=%d 429=%d 499/503=%d client-err=%d",
			other.Load(), ok200.Load(), shed.Load(), canceled.Load(), clientErr.Load())
	}

	// Collapse is probabilistic under client deadlines, so force it
	// deterministically if the storm alone did not: the test hook blocks
	// the first leader inside its fill, the rest of the burst piles onto
	// the same key as singleflight waiters (visible in the in-flight
	// gauge), and releasing the leader completes them all from one
	// extraction.
	if reg.Cache().Stats().Collapsed == 0 {
		const burstN = 4 // == maxInflight above: every request holds a slot
		release := make(chan struct{})
		var once sync.Once
		extractTestHook = func(string) {
			once.Do(func() { <-release })
		}
		defer func() { extractTestHook = nil }()
		gp := eng.Page(60)
		var burst sync.WaitGroup
		for j := 0; j < burstN; j++ {
			burst.Add(1)
			go func() {
				defer burst.Done()
				resp, err := http.Post(srv.URL+"/extract?engine=demo", "text/html",
					strings.NewReader(gp.HTML))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}()
		}
		for reg.metrics.extractInFlight.Value() < burstN {
			time.Sleep(100 * time.Microsecond)
		}
		close(release)
		burst.Wait()
	}
	close(stopWatch)

	srv.Close()
	if v := boundViolations.Load(); v != 0 {
		t.Fatalf("cache byte bound exceeded %d time(s) during the storm (bound %d)", v, cacheBound)
	}
	if b := reg.Cache().Bytes(); b > cacheBound {
		t.Fatalf("cache holds %d bytes after the storm, bound %d", b, cacheBound)
	}
	s := reg.Cache().Stats()
	if s.Collapsed == 0 {
		t.Fatalf("no concurrent misses collapsed during the storm: %+v", s)
	}
	// The byte-bound check above is only meaningful if entries were actually
	// resident: an always-empty cache (bodies larger than the per-shard
	// budget) satisfies any bound trivially.
	if s.Hits == 0 || s.Entries == 0 {
		t.Fatalf("storm never populated the cache (bound check was vacuous): %+v", s)
	}
	t.Logf("mixed storm of %d: 200=%d 429=%d 499/503=%d client-err=%d cache=%+v",
		n, ok200.Load(), shed.Load(), canceled.Load(), clientErr.Load(), s)

	arenaAfter := dom.ArenaStatsSnapshot()
	if acq, rel := arenaAfter.Acquires-arenaBefore.Acquires, arenaAfter.Releases-arenaBefore.Releases; acq != rel {
		t.Fatalf("arena leak across mixed storm: %d acquired, %d released", acq, rel)
	}
	scratchAfter := layout.ScratchStatsSnapshot()
	if acq, rel := scratchAfter.Acquires-scratchBefore.Acquires, scratchAfter.Releases-scratchBefore.Releases; acq != rel {
		t.Fatalf("render scratch leak across mixed storm: %d acquired, %d released", acq, rel)
	}
	if fails := reg.metrics.panics.Value(); fails != 0 {
		t.Fatalf("panics_total = %d during mixed storm, want 0", fails)
	}
}
