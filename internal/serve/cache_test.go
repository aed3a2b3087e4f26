package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"mse/internal/core"
	"mse/internal/excache"
	"mse/internal/shard"
	"mse/internal/synth"
)

// TestDifferentialCachedExtraction is the soundness check for the
// content-addressed result cache: across the full paper-scale synthetic
// testbed (119 engines plus a drifted variant of each), every response
// served from the cache must be byte-identical to the same page extracted
// through a cache-less registry.  A subset of engines additionally swaps
// wrappers mid-test (retrained on the drifted pages) and re-extracts: the
// post-swap responses must match a fresh uncached extraction under the new
// wrapper, proving generation tagging lets no stale entry survive a swap.
func TestDifferentialCachedExtraction(t *testing.T) {
	bed := synth.GenerateTestbed(synth.DefaultConfig())
	if testing.Short() {
		bed = bed[:12]
	}
	opts := core.DefaultOptions()
	ref := NewRegistry(opts) // cache-less reference registry
	hot := NewRegistry(opts)
	hot.SetCache(64 << 20)
	ctx := context.Background()

	build := func(e *synth.Engine, ei int, drifted bool) []byte {
		src := e
		if drifted {
			src = e.Drifted()
		}
		var samples []*core.SamplePage
		for q := 0; q < 5; q++ {
			gp := src.Page(q)
			samples = append(samples, &core.SamplePage{HTML: gp.HTML, Query: gp.Query})
		}
		ew, err := core.BuildWrapper(samples, opts)
		if err != nil {
			t.Fatalf("engine %d (drifted=%v): %v", ei, drifted, err)
		}
		data, err := json.Marshal(ew)
		if err != nil {
			t.Fatalf("engine %d: marshal wrapper: %v", ei, err)
		}
		return data
	}
	compare := func(name string, ei, q int, what, html string, query []string) {
		t.Helper()
		want, cached, err := ref.ExtractCached(ctx, name, html, query)
		if err != nil {
			t.Fatalf("engine %d %s page %d: reference: %v", ei, what, q, err)
		}
		if cached {
			t.Fatalf("engine %d: cache-less registry reported a cache hit", ei)
		}
		first, _, err := hot.ExtractCached(ctx, name, html, query)
		if err != nil {
			t.Fatalf("engine %d %s page %d: cached registry: %v", ei, what, q, err)
		}
		if !bytes.Equal(first, want) {
			t.Errorf("engine %d %s page %d: first (filling) response differs\nref: %.200s\ngot: %.200s",
				ei, what, q, want, first)
		}
		again, hit, err := hot.ExtractCached(ctx, name, html, query)
		if err != nil {
			t.Fatalf("engine %d %s page %d: repeat: %v", ei, what, q, err)
		}
		if !hit {
			t.Errorf("engine %d %s page %d: repeat of an identical page missed the cache", ei, what, q)
		}
		if !bytes.Equal(again, want) {
			t.Errorf("engine %d %s page %d: cached response differs from uncached\nref: %.200s\ngot: %.200s",
				ei, what, q, want, again)
		}
	}

	for ei, e := range bed {
		name := fmt.Sprintf("e%03d", ei)
		data := build(e, ei, false)
		for _, r := range []*Registry{ref, hot} {
			if err := r.Add(name, data); err != nil {
				t.Fatalf("engine %d: %v", ei, err)
			}
		}
		drifted := e.Drifted()
		for q := 5; q < 10; q++ {
			gp := e.Page(q)
			compare(name, ei, q, "fresh", gp.HTML, gp.Query)
			dp := drifted.Page(q)
			compare(name, ei, q, "drifted", dp.HTML, dp.Query)
		}
		// Mid-test wrapper swap for a subset: the retrained wrapper bumps
		// the generation, so the pages just cached above must be re-
		// extracted, not replayed.
		if ei%6 == 0 {
			data2 := build(e, ei, true)
			for _, r := range []*Registry{ref, hot} {
				if err := r.Add(name, data2); err != nil {
					t.Fatalf("engine %d: swap: %v", ei, err)
				}
			}
			for q := 5; q < 8; q++ {
				dp := drifted.Page(q)
				want, _, err := ref.ExtractCached(ctx, name, dp.HTML, dp.Query)
				if err != nil {
					t.Fatalf("engine %d post-swap page %d: reference: %v", ei, q, err)
				}
				got, hit, err := hot.ExtractCached(ctx, name, dp.HTML, dp.Query)
				if err != nil {
					t.Fatalf("engine %d post-swap page %d: %v", ei, q, err)
				}
				if hit {
					t.Errorf("engine %d post-swap page %d: stale cache hit across a wrapper swap", ei, q)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("engine %d post-swap page %d: response differs from fresh wrapper\nref: %.200s\ngot: %.200s",
						ei, q, want, got)
				}
			}
		}
	}

	s := hot.Cache().Stats()
	if s.Hits == 0 || s.Misses == 0 {
		t.Fatalf("cache saw no traffic: %+v", s)
	}
	if s.Invalidated == 0 {
		t.Fatalf("wrapper swaps invalidated nothing: %+v", s)
	}
	t.Logf("cache after differential sweep: %+v (hit rate %.1f%%)", s, 100*s.HitRate())
}

// TestCachedHTTPPathByteIdentical drives the real /extract handler twice
// with the same page: the second (cached) response must be byte-for-byte
// the first, and /metrics must report the hit.
func TestCachedHTTPPathByteIdentical(t *testing.T) {
	reg, eng := testRegistry(t)
	reg.SetCache(16 << 20)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	gp := eng.Page(9)
	post := func() []byte {
		t.Helper()
		resp, err := http.Post(srv.URL+"/extract?engine=demo&q="+strings.Join(gp.Query, "+"),
			"text/html", strings.NewReader(gp.HTML))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return buf.Bytes()
	}
	first := post()
	second := post()
	if !bytes.Equal(first, second) {
		t.Fatalf("cached response differs from uncached\nfirst:  %.300s\nsecond: %.300s", first, second)
	}
	if s := reg.Cache().Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", s)
	}
}

// TestBatchMatchesSingle: every 200 item of a batch must carry the exact
// body /extract would have served, duplicates within the batch must be
// marked cached, and per-item errors must not fail their neighbours.
func TestBatchMatchesSingle(t *testing.T) {
	reg, eng := testRegistry(t)
	reg.SetCache(16 << 20)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	pa, pb := eng.Page(11), eng.Page(12)
	single := func(gp *synth.GenPage) []byte {
		t.Helper()
		resp, err := http.Post(srv.URL+"/extract?engine=demo&q="+strings.Join(gp.Query, "+"),
			"text/html", strings.NewReader(gp.HTML))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("single status = %d: %s", resp.StatusCode, buf.String())
		}
		return buf.Bytes()
	}
	wantA, wantB := single(pa), single(pb)

	batch := map[string]any{"items": []map[string]any{
		{"engine": "demo", "q": strings.Join(pa.Query, "+"), "html": pa.HTML},
		{"engine": "demo", "q": strings.Join(pa.Query, "+"), "html": pa.HTML}, // duplicate
		{"engine": "demo", "q": strings.Join(pb.Query, "+"), "html": pb.HTML},
		{"engine": "nosuch", "html": "<html></html>"},
	}}
	body, _ := json.Marshal(batch)
	resp, err := http.Post(srv.URL+"/extract/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	var br batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 4 {
		t.Fatalf("results = %d, want 4", len(br.Results))
	}
	compact := func(b []byte) string {
		var out bytes.Buffer
		if err := json.Compact(&out, b); err != nil {
			t.Fatalf("compacting %.120s: %v", b, err)
		}
		return out.String()
	}
	for i, want := range map[int][]byte{0: wantA, 1: wantA, 2: wantB} {
		r := br.Results[i]
		if r.Status != http.StatusOK {
			t.Fatalf("item %d status = %d (%s)", i, r.Status, r.Error)
		}
		if compact(r.Result) != compact(want) {
			t.Errorf("item %d: batch result differs from single path\nsingle: %.200s\nbatch:  %.200s",
				i, want, r.Result)
		}
	}
	// The pages were cached by the single requests above; and item 1 is a
	// within-batch duplicate of item 0.
	for i := 0; i < 3; i++ {
		if !br.Results[i].Cached {
			t.Errorf("item %d not marked cached", i)
		}
	}
	if got := br.Results[3]; got.Status != http.StatusNotFound || got.Error == "" {
		t.Errorf("unknown-engine item = %+v, want 404 with error", got)
	}
}

// TestExtractReusesCarriedKey pins the single hash per batch page: extract
// files its result under the content key the batch dedupe already put on
// the item instead of hashing the page a second time.
func TestExtractReusesCarriedKey(t *testing.T) {
	reg, eng := testRegistry(t)
	reg.SetCache(16 << 20)
	gp := eng.Page(11)
	it := item{engine: "demo", html: gp.HTML, query: gp.Query}
	if !reg.resolve(&it) {
		t.Fatal(it.msg)
	}
	// Deliberately not the page's hash, so a recomputed key would differ.
	carried := excache.Key{Engine: "demo", Gen: it.ent.gen, Hash: excache.Hash128{Hi: 1, Lo: 2}}
	it.key = carried
	reg.extract(context.Background(), &it)
	if it.status != http.StatusOK {
		t.Fatalf("status = %d (%s)", it.status, it.msg)
	}
	if _, ok := reg.Cache().Get(carried); !ok {
		t.Fatal("result not filed under the carried key: extract hashed the page again")
	}
}

// TestBatchBareArrayAndLimits covers the alternate wire form and the
// request-level guards.
func TestBatchBareArrayAndLimits(t *testing.T) {
	reg, eng := testRegistry(t)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	gp := eng.Page(13)
	arr, _ := json.Marshal([]map[string]any{{"q": strings.Join(gp.Query, "+"), "html": gp.HTML}})
	resp, err := http.Post(srv.URL+"/extract/batch?engine=demo", "application/json", bytes.NewReader(arr))
	if err != nil {
		t.Fatal(err)
	}
	var br batchResponse
	json.NewDecoder(resp.Body).Decode(&br)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(br.Results) != 1 || br.Results[0].Status != http.StatusOK {
		t.Fatalf("bare array: status=%d results=%+v", resp.StatusCode, br.Results)
	}
	if br.Results[0].Engine != "demo" {
		t.Fatalf("default engine not applied: %+v", br.Results[0])
	}

	for _, tc := range []struct {
		name   string
		method string
		body   string
		want   int
	}{
		{"get", http.MethodGet, "", http.StatusMethodNotAllowed},
		{"malformed", http.MethodPost, "{", http.StatusBadRequest},
		{"empty", http.MethodPost, `{"items":[]}`, http.StatusBadRequest},
	} {
		req, _ := http.NewRequest(tc.method, srv.URL+"/extract/batch", strings.NewReader(tc.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	// Oversized item: fails that item with 413, not the batch.
	big, _ := json.Marshal(map[string]any{"items": []map[string]any{
		{"engine": "demo", "html": strings.Repeat("x", MaxPageBytes+1)},
		{"engine": "demo", "q": strings.Join(gp.Query, "+"), "html": gp.HTML},
	}})
	resp, err = http.Post(srv.URL+"/extract/batch", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	br = batchResponse{}
	json.NewDecoder(resp.Body).Decode(&br)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(br.Results) != 2 {
		t.Fatalf("oversized-item batch: status=%d results=%d", resp.StatusCode, len(br.Results))
	}
	if br.Results[0].Status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized item status = %d, want 413", br.Results[0].Status)
	}
	if br.Results[1].Status != http.StatusOK {
		t.Errorf("valid neighbour status = %d, want 200", br.Results[1].Status)
	}
}

// TestBatchJournalEchoesRequestID: sampled batch sub-item events must all
// carry the batch request's correlation ID and their item index, and an
// item that fails validation is journaled with its status and error — on
// /extract exactly as on /extract/batch.
func TestBatchJournalEchoesRequestID(t *testing.T) {
	reg, eng := testRegistry(t)
	reg.SetCache(16 << 20)
	var journal bytes.Buffer
	reg.SetJournal(&journal, 1)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	gp := eng.Page(14)
	body, _ := json.Marshal(map[string]any{"items": []map[string]any{
		{"engine": "demo", "q": strings.Join(gp.Query, "+"), "html": gp.HTML},
		{"engine": "demo", "q": strings.Join(gp.Query, "+"), "html": gp.HTML},
		{"engine": "nosuch", "html": gp.HTML},
	}})
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/extract/batch", bytes.NewReader(body))
	req.Header.Set("X-Request-ID", "batch-rid-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	// The same unknown engine on the single endpoint.
	resp, err = http.Post(srv.URL+"/extract?engine=nosuch", "text/html", strings.NewReader(gp.HTML))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("single status = %d, want 404", resp.StatusCode)
	}
	lines := strings.Split(strings.TrimSpace(journal.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("journal lines = %d, want 4:\n%s", len(lines), journal.String())
	}
	evs := make([]JournalEvent, len(lines))
	for i, line := range lines {
		if err := json.Unmarshal([]byte(line), &evs[i]); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
	}
	for i, ev := range evs[:3] {
		if ev.RequestID != "batch-rid-1" {
			t.Errorf("line %d request_id = %q, want batch-rid-1", i, ev.RequestID)
		}
		if !ev.Batch || ev.BatchIndex != i {
			t.Errorf("line %d batch=%v index=%d, want true/%d", i, ev.Batch, ev.BatchIndex, i)
		}
		if want := []int{http.StatusOK, http.StatusOK, http.StatusNotFound}[i]; ev.Status != want {
			t.Errorf("line %d status = %d, want %d", i, ev.Status, want)
		}
	}
	// The second item duplicates the first within the batch: cached.
	if !evs[1].Cached {
		t.Errorf("duplicate item's journal event not marked cached: %s", lines[1])
	}
	// The unknown engine, journaled alike by both endpoints (only the
	// batch item's page is known: /extract reads no body for it).
	for _, i := range []int{2, 3} {
		ev := evs[i]
		if ev.Engine != "nosuch" || ev.Status != http.StatusNotFound || ev.Error != `unknown engine "nosuch"` {
			t.Errorf("unknown-engine line %d = %s", i, lines[i])
		}
	}
	if evs[2].PageBytes != len(gp.HTML) {
		t.Errorf("batch unknown-engine line page_bytes = %d, want %d", evs[2].PageBytes, len(gp.HTML))
	}
	if evs[3].Batch || evs[3].RequestID == "batch-rid-1" {
		t.Errorf("single-endpoint line carries batch fields: %s", lines[3])
	}
}

// TestShardRouting: a sharded registry answers requests for engines it
// does not own with 421 naming the owner, on both serving surfaces.
func TestShardRouting(t *testing.T) {
	reg, eng := testRegistry(t)
	const shards = 3
	owner := shard.NewRing(shards).Owner("demo")
	notOwner := (owner + 1) % shards
	if err := reg.SetShard(notOwner, shards); err != nil {
		t.Fatal(err)
	}
	if reg.Owns("demo") {
		t.Fatalf("shard %d claims demo, owned by %d", notOwner, owner)
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	gp := eng.Page(15)
	resp, err := http.Post(srv.URL+"/extract?engine=demo", "text/html", strings.NewReader(gp.HTML))
	if err != nil {
		t.Fatal(err)
	}
	var mr misrouteJSON
	json.NewDecoder(resp.Body).Decode(&mr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("status = %d, want 421", resp.StatusCode)
	}
	if mr.OwnerShard != owner || mr.Shards != shards {
		t.Fatalf("misroute = %+v, want owner %d of %d", mr, owner, shards)
	}

	body, _ := json.Marshal(map[string]any{"items": []map[string]any{
		{"engine": "demo", "html": gp.HTML},
	}})
	resp, err = http.Post(srv.URL+"/extract/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var br batchResponse
	json.NewDecoder(resp.Body).Decode(&br)
	resp.Body.Close()
	if len(br.Results) != 1 || br.Results[0].Status != http.StatusMisdirectedRequest {
		t.Fatalf("batch misroute results = %+v", br.Results)
	}
	if br.Results[0].OwnerShard == nil || *br.Results[0].OwnerShard != owner {
		t.Fatalf("batch misroute owner = %v, want %d", br.Results[0].OwnerShard, owner)
	}

	// The owning shard serves it.
	if err := reg.SetShard(owner, shards); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(srv.URL+"/extract?engine=demo", "text/html", strings.NewReader(gp.HTML))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner shard status = %d, want 200", resp.StatusCode)
	}
}

// TestSnapshotRoundTrip: SaveSnapshot → LoadSnapshot must restore the
// wrapper fleet with its generations, and the restored registry must serve
// byte-identical responses.
func TestSnapshotRoundTrip(t *testing.T) {
	reg, eng := testRegistry(t)
	// Bump demo to generation 2 so the round trip proves generations are
	// preserved, not recomputed.
	if err := reg.Add("demo", testWrapper.data); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := reg.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}

	restored := NewRegistry(core.DefaultOptions())
	restored.SetCache(16 << 20)
	n, err := restored.LoadSnapshot(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("loaded %d engines, want 1", n)
	}
	st := restored.Status()["demo"]
	if st.Generation != 2 {
		t.Fatalf("restored generation = %d, want 2", st.Generation)
	}

	gp := eng.Page(16)
	ctx := context.Background()
	want, _, err := reg.ExtractCached(ctx, "demo", gp.HTML, gp.Query)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := restored.ExtractCached(ctx, "demo", gp.HTML, gp.Query)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("restored registry serves different bytes\nwant: %.200s\ngot:  %.200s", want, got)
	}

	// A sharded registry loads only its own slice of a fleet snapshot.
	other := NewRegistry(core.DefaultOptions())
	const shards = 3
	owner := shard.NewRing(shards).Owner("demo")
	if err := other.SetShard((owner+1)%shards, shards); err != nil {
		t.Fatal(err)
	}
	n, err = other.LoadSnapshot(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("non-owning shard loaded %d engines, want 0", n)
	}
}

// TestLoadSnapshotAllOrNothing: a snapshot whose third entry is malformed
// installs none of its entries — the two valid engines before it
// included — and the error names the entry's index in the file.
func TestLoadSnapshotAllOrNothing(t *testing.T) {
	reg, _ := testRegistry(t)
	before := reg.Status()
	for _, c := range []struct {
		name    string
		third   snapshotEngine
		wantErr string
	}{
		{"malformed wrapper", snapshotEngine{Name: "gamma", Generation: 1, Wrapper: json.RawMessage(`{"wrappers":5}`)}, "snapshot engine 2:"},
		{"no name", snapshotEngine{Generation: 1, Wrapper: testWrapper.data}, "snapshot engine 2 has no name"},
	} {
		doc, err := json.Marshal(snapshotFile{Version: snapshotVersion, Engines: []snapshotEngine{
			{Name: "alpha", Generation: 4, Wrapper: testWrapper.data},
			{Name: "demo", Generation: 9, Wrapper: testWrapper.data},
			c.third,
		}})
		if err != nil {
			t.Fatal(err)
		}
		n, err := reg.LoadSnapshot(bytes.NewReader(doc))
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Fatalf("%s: err = %v, want it to contain %q", c.name, err, c.wantErr)
		}
		if n != 0 {
			t.Fatalf("%s: loaded %d engines, want 0", c.name, n)
		}
		if got := reg.Status(); !reflect.DeepEqual(got, before) {
			t.Fatalf("%s: a failed load changed the registry\nbefore: %v\nafter:  %v", c.name, before, got)
		}
	}
}

// TestStatuszShowsGenerationsAndCache: the satellite surface — per-engine
// generation and last-swap time plus the cache line.
func TestStatuszShowsGenerationsAndCache(t *testing.T) {
	reg, eng := testRegistry(t)
	reg.SetCache(16 << 20)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	gp := eng.Page(17)
	for i := 0; i < 2; i++ {
		resp, err := http.Post(srv.URL+"/extract?engine=demo", "text/html", strings.NewReader(gp.HTML))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	page := buf.String()
	for _, want := range []string{"excache: enabled=true", "gen", "last-swap", "ago", "batch: requests="} {
		if !strings.Contains(page, want) {
			t.Errorf("statusz missing %q:\n%s", want, page)
		}
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Excache *excacheJSON `json:"excache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Excache == nil || !m.Excache.Enabled {
		t.Fatalf("metrics excache section = %+v", m.Excache)
	}
	if m.Excache.Hits != 1 || m.Excache.Misses != 1 {
		t.Fatalf("excache metrics = %+v, want 1 hit / 1 miss", m.Excache)
	}
}
