package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"mse/internal/core"
	"mse/internal/obs"
	"mse/internal/serve"
	"mse/internal/synth"
)

// serveConfig describes one serving workload.
type serveConfig struct {
	name      string
	perEngine int // served pages per engine: the miss pool or the hot working set
	// cacheBytes is the result-cache budget (mse-serve's -cache-bytes).
	cacheBytes int64
	// openRate is the open-loop arrival rate in requests per second.
	openRate float64
	// batch selects POST /extract/batch requests of batchItems items drawn
	// by popularity; otherwise every request is a single POST /extract of
	// a page no earlier request carried.
	batch bool
}

// mseServeCacheBytes is mse-serve's default -cache-bytes.
const mseServeCacheBytes = 256 << 20

var (
	serveMiss = serveConfig{
		name:       "serve-miss",
		perEngine:  missPagesPerEng,
		cacheBytes: mseServeCacheBytes,
		openRate:   1000,
	}
	serveHot = serveConfig{
		name:      "serve-hot",
		perEngine: hotPagesPerEng,
		// About half the working set's cached bytes (952 entries of about
		// 4.4 KB), so the tail of the popularity law keeps missing.
		cacheBytes: 2 << 20,
		openRate:   200,
		batch:      true,
	}
)

// warmBatches is how many serve-hot batches set-up sends after the
// reference pass, so the cache's segmented LRU reaches its steady state
// before the first timed request.
const warmBatches = 300

// fleet is one set-up of a serving workload: the bed, its trained
// wrappers registered in a serve.Registry, the server on a loopback
// listener, the client, and the reference response of every served page.
type fleet struct {
	cfg   serveConfig
	seed  uint64
	pages []servePage
	// refs[k] is the /extract body of page k from set-up, every later
	// answer for the page must equal it byte for byte; trimmed[k] is the
	// same without the trailing newline, as batch responses splice it.
	refs, trimmed [][]byte
	items         [][]byte // serve-hot: each page as an encoded batch item
	pop           *popularity

	reg    *serve.Registry
	ews    []*core.EngineWrapper // benchmark-owned copies for layer probes
	srv    *http.Server
	served chan error
	base   string
	tr     *http.Transport
	client *http.Client
	bufs   []*bytes.Buffer // one response buffer per worker

	// Traced runs only: handler time per request ID while tracing is on.
	tracing   atomic.Bool
	handlerNs []atomic.Int64
}

// workers is the generator's connection count: one per CPU.
func workers() int { return runtime.NumCPU() }

// setupFleet generates the serving inputs, trains and registers one
// wrapper per engine, starts the server and warms it.  With traced set,
// wrapper training records build spans on tracer and the handler is
// wrapped in the timing middleware.
func setupFleet(ctx context.Context, cfg serveConfig, seed uint64, traced bool, tracer *obs.Tracer) (*fleet, error) {
	bed := synth.GenerateTestbed(synth.DefaultConfig())
	f := &fleet{cfg: cfg, seed: seed, pages: servingPages(bed, seed, cfg.perEngine)}
	opts := core.DefaultOptions()
	f.reg = serve.NewRegistry(opts)
	// mse-serve's default admission control: two extractions per CPU,
	// one second of queueing.
	f.reg.SetLimits(2*runtime.GOMAXPROCS(0), time.Second)
	f.reg.SetCache(cfg.cacheBytes)
	trainOpts := opts
	trainOpts.Obs = tracer
	for i, e := range bed {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		samples := make([]*core.SamplePage, trainPages)
		for q := range samples {
			p := e.Page(q)
			samples[q] = &core.SamplePage{HTML: p.HTML, Query: p.Query}
		}
		ew, err := core.BuildWrapper(samples, trainOpts)
		if err != nil {
			return nil, fmt.Errorf("training %s: %w", engineName(i), err)
		}
		data, err := json.Marshal(ew)
		if err != nil {
			return nil, fmt.Errorf("encoding wrapper %s: %w", engineName(i), err)
		}
		if err := f.reg.Add(engineName(i), data); err != nil {
			return nil, err
		}
		if traced {
			var own core.EngineWrapper
			if err := json.Unmarshal(data, &own); err != nil {
				return nil, fmt.Errorf("decoding wrapper %s: %w", engineName(i), err)
			}
			own.SetOptions(opts)
			own.Compile()
			f.ews = append(f.ews, &own)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	var h http.Handler = f.reg.Handler()
	if traced {
		h = f.timeHandler(h)
	}
	f.srv = serve.NewServer(ln.Addr().String(), h)
	f.served = make(chan error, 1)
	go func() { f.served <- f.srv.Serve(ln) }()
	f.base = "http://" + ln.Addr().String()
	n := workers()
	f.tr = &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
	}
	f.client = &http.Client{Transport: f.tr}
	for w := 0; w < n; w++ {
		f.bufs = append(f.bufs, new(bytes.Buffer))
	}
	if err := f.warm(ctx); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// warm serves every page once as a single request, keeps the answers as
// the references, and on serve-hot runs warmBatches popularity batches.
func (f *fleet) warm(ctx context.Context) error {
	f.refs = make([][]byte, len(f.pages))
	f.trimmed = make([][]byte, len(f.pages))
	for k := range f.pages {
		p := &f.pages[k]
		html := p.page.HTML
		if !f.cfg.batch {
			html += uniqueSuffix('w', k)
		}
		body, err := f.post(ctx, 0, "/extract?"+p.qs, strings.NewReader(html), -1)
		if err != nil {
			return fmt.Errorf("warm-up page %d (%s): %w", k, p.name, err)
		}
		engine, _, err := parseResponse(body)
		if err != nil {
			return fmt.Errorf("warm-up page %d (%s): %w", k, p.name, err)
		}
		if engine != p.name {
			return fmt.Errorf("warm-up page %d: response names engine %q, want %q", k, engine, p.name)
		}
		f.refs[k] = bytes.Clone(body)
		f.trimmed[k] = bytes.TrimRight(f.refs[k], "\n")
	}
	if !f.cfg.batch {
		return nil
	}
	f.pop = newPopularity(len(f.pages), f.seed)
	for k := range f.pages {
		item, err := batchItem(&f.pages[k], f.pages[k].page.HTML)
		if err != nil {
			return err
		}
		f.items = append(f.items, item)
	}
	send := f.sender(ctx, streamWarm, false)
	for b := 0; b < warmBatches; b++ {
		if err := send(0, b); err != nil {
			return fmt.Errorf("warm-up batch %d: %w", b, err)
		}
	}
	return nil
}

// close stops the server and waits for it, and drops idle connections.
func (f *fleet) close() error {
	f.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := f.srv.Shutdown(ctx)
	if serr := <-f.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	f.tr.CloseIdleConnections()
	return err
}

// uniqueSuffix makes a page byte-distinct from every other request of the
// run without changing what it renders: an HTML comment after the
// document.  The content hash covers it, so the result cache misses.
func uniqueSuffix(phase byte, i int) string {
	return "<!-- msebench " + string(phase) + strconv.Itoa(i) + " -->"
}

// post sends one POST and returns the body of a 200 response, valid until
// worker w's next request.  id >= 0 is sent as X-Request-ID so the timing
// middleware can attribute handler time to the request.
func (f *fleet) post(ctx context.Context, w int, path string, body io.Reader, id int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.base+path, body)
	if err != nil {
		return nil, err
	}
	if id >= 0 {
		req.Header.Set("X-Request-ID", strconv.Itoa(id))
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	buf := f.bufs[w]
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, buf.Bytes())
	}
	return buf.Bytes(), nil
}

// sender returns the operation of a stream: on serve-miss, operation i is
// pool page i mod pool size made unique by its suffix; on serve-hot it is
// batch i of the stream.  Every answer is checked against the references.
func (f *fleet) sender(ctx context.Context, stream int, withID bool) sendFunc {
	phase := byte('a' + stream)
	return func(w, i int) error {
		id := -1
		if withID {
			id = i
		}
		if !f.cfg.batch {
			k := i % len(f.pages)
			p := &f.pages[k]
			body, err := f.post(ctx, w, "/extract?"+p.qs, strings.NewReader(p.page.HTML+uniqueSuffix(phase, i)), id)
			if err != nil {
				return err
			}
			if !bytes.Equal(body, f.refs[k]) {
				return fmt.Errorf("page %d (%s): body differs from its first answer", k, p.name)
			}
			return nil
		}
		idx := f.pop.batch(f.seed, stream, i)
		body, err := f.post(ctx, w, "/extract/batch", bytes.NewReader(f.batchBody(idx)), id)
		if err != nil {
			return err
		}
		return f.checkBatch(body, idx)
	}
}

// batchItem encodes one page of a batch request.
func batchItem(p *servePage, html string) ([]byte, error) {
	item, err := json.Marshal(struct {
		Engine string `json:"engine"`
		Query  string `json:"q"`
		HTML   string `json:"html"`
	}{p.name, p.query, html})
	if err != nil {
		return nil, fmt.Errorf("encoding batch item: %w", err)
	}
	return item, nil
}

// batchBody encodes a batch request for the given working-set pages.
func (f *fleet) batchBody(idx []int) []byte {
	n := 16
	for _, k := range idx {
		n += len(f.items[k]) + 1
	}
	b := make([]byte, 0, n)
	b = append(b, `{"items":[`...)
	for i, k := range idx {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, f.items[k]...)
	}
	return append(b, "]}"...)
}

// checkBatch verifies that result i of a batch response is the reference
// body of page idx[i].  The server splices each item's /extract body in
// verbatim after a "result" key; inside a body that key can only occur
// escaped, so the i-th unescaped key starts item i's body.
func (f *fleet) checkBatch(body []byte, idx []int) error {
	const key = `"result":`
	pos := 0
	for i, k := range idx {
		j := bytes.Index(body[pos:], []byte(key))
		if j < 0 {
			return fmt.Errorf("batch item %d (%s): no result in %.300s", i, f.pages[k].name, body)
		}
		pos += j + len(key)
		if !bytes.HasPrefix(body[pos:], f.trimmed[k]) {
			return fmt.Errorf("batch item %d (%s): result differs from the page's single-request body", i, f.pages[k].name)
		}
		pos += len(f.trimmed[k])
	}
	if bytes.Contains(body[pos:], []byte(key)) {
		return fmt.Errorf("batch response has more than %d results", len(idx))
	}
	return nil
}

// timeHandler is the traced run's middleware: it records the time spent
// inside the registry's handler for requests that carry a numeric
// X-Request-ID while tracing is on.
func (f *fleet) timeHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !f.tracing.Load() {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		if id, err := strconv.Atoi(r.Header.Get("X-Request-ID")); err == nil && id >= 0 && id < len(f.handlerNs) {
			f.handlerNs[id].Store(int64(d))
		}
	})
}

// cacheCounters is the part of GET /metrics the benchmark reads.
type cacheCounters struct {
	Pools struct {
		ParseArena    struct{ Acquires, Reuses uint64 } `json:"parse_arena"`
		RenderScratch struct{ Acquires, Reuses uint64 } `json:"render_scratch"`
		Prune         struct {
			Runs          uint64 `json:"runs"`
			NodesSkipped  uint64 `json:"nodes_skipped"`
			LinesRendered uint64 `json:"lines_rendered"`
			LinesSkeleton uint64 `json:"lines_skeleton"`
		} `json:"prune"`
	} `json:"pools"`
	Excache struct {
		Hits      uint64 `json:"hits_total"`
		Misses    uint64 `json:"misses_total"`
		Evictions uint64 `json:"evictions_total"`
	} `json:"excache"`
}

// scrape reads the server's /metrics counters.
func (f *fleet) scrape(ctx context.Context) (cacheCounters, error) {
	var c cacheCounters
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.base+"/metrics", nil)
	if err != nil {
		return c, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return c, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c, fmt.Errorf("scraping /metrics: HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		return c, fmt.Errorf("decoding /metrics: %w", err)
	}
	return c, nil
}

// sampleChecks is how many seeded pages the byte-identity check serves
// again after the timed phases.
const sampleChecks = 64

// checkIdentity serves a seeded sample of pages again as a single request
// (twice: the second is a cache hit), inside one batch, and through
// Registry.ExtractCached, and requires every answer to equal the page's
// reference body byte for byte.
func (f *fleet) checkIdentity(ctx context.Context) error {
	rng := rand.New(rand.NewPCG(f.seed, streamSample))
	idx := rng.Perm(len(f.pages))[:sampleChecks]
	htmls := make([]string, len(idx))
	var items [][]byte
	for n, k := range idx {
		p := &f.pages[k]
		htmls[n] = p.page.HTML
		if !f.cfg.batch {
			htmls[n] += uniqueSuffix('s', n)
		}
		for rep := 0; rep < 2; rep++ {
			body, err := f.post(ctx, 0, "/extract?"+p.qs, strings.NewReader(htmls[n]), -1)
			if err != nil {
				return fmt.Errorf("identity check page %d: %w", k, err)
			}
			if !bytes.Equal(body, f.refs[k]) {
				return fmt.Errorf("identity check page %d (%s): single request %d differs from the reference", k, p.name, rep+1)
			}
		}
		item, err := batchItem(p, htmls[n])
		if err != nil {
			return err
		}
		items = append(items, item)
		body, hit, err := f.reg.ExtractCached(ctx, p.name, htmls[n], p.page.Query)
		if err != nil {
			return fmt.Errorf("identity check page %d: ExtractCached: %w", k, err)
		}
		if !hit || !bytes.Equal(body, f.refs[k]) {
			return fmt.Errorf("identity check page %d (%s): ExtractCached (hit=%v) differs from the reference", k, p.name, hit)
		}
	}
	// One batch of the whole sample in reverse order, each page twice.
	var order []int
	for n := len(idx) - 1; n >= 0; n-- {
		order = append(order, n, n)
	}
	b := []byte(`{"items":[`)
	want := make([]int, len(order))
	for i, n := range order {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, items[n]...)
		want[i] = idx[n]
	}
	b = append(b, "]}"...)
	body, err := f.post(ctx, 0, "/extract/batch", bytes.NewReader(b), -1)
	if err != nil {
		return fmt.Errorf("identity check batch: %w", err)
	}
	if err := f.checkBatch(body, want); err != nil {
		return fmt.Errorf("identity check batch: %w", err)
	}
	return nil
}

// scoreRefs scores every reference body against its page's ground truth.
func (f *fleet) scoreRefs() (truthScore, error) {
	var total truthScore
	for k := range f.pages {
		p := &f.pages[k]
		engine, got, err := parseResponse(f.refs[k])
		if err != nil {
			return total, err
		}
		if engine != p.name {
			return total, fmt.Errorf("page %d: response names engine %q, want %q", k, engine, p.name)
		}
		sc := scorePage(p.page.Truth, got)
		if sc.Split > 0 {
			return total, fmt.Errorf("page %d (%s, query %d): %d ground-truth records appear in more than one extracted section",
				k, p.name, p.page.QueryIndex, sc.Split)
		}
		total.add(sc)
	}
	return total, nil
}
