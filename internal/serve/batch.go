package serve

// POST /extract/batch: the amortized serving surface for callers that hold
// many result pages at once (a crawler flush, a metasearch fan-in, a
// backfill).  One request carries N pages; the handler deduplicates them by
// content address before touching the cache, serves residents immediately,
// and fans the unique misses through the worker pool — each miss taking one
// admission slot, so a batch of N counts N against -max-inflight rather
// than sneaking past the limiter.  Results and errors are per item: one
// unknown engine or oversized page fails that item, not the batch.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"mse/internal/excache"
	"mse/internal/par"
)

// MaxBatchItems bounds the number of pages in one batch request.
const MaxBatchItems = 256

// MaxBatchBytes bounds the whole batch request body.
const MaxBatchBytes = 64 << 20

// batchItem is one page in a batch request.  Engine defaults to the
// ?engine= query parameter; Query uses the same +/space-separated form as
// the single endpoint's ?q=.
type batchItem struct {
	Engine string `json:"engine,omitempty"`
	Query  string `json:"q,omitempty"`
	HTML   string `json:"html"`
}

// batchItemResult is the wire form of one item's outcome.  Status is the
// HTTP status the same page would have received on /extract; Result is the
// byte-identical /extract response body on 200.
type batchItemResult struct {
	Engine     string          `json:"engine,omitempty"`
	Status     int             `json:"status"`
	Cached     bool            `json:"cached,omitempty"`
	OwnerShard *int            `json:"owner_shard,omitempty"`
	Error      string          `json:"error,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
}

// batchResponse is the wire form of POST /extract/batch.
type batchResponse struct {
	Results []batchItemResult `json:"results"`
}

// decodeBatch accepts either {"items":[...]} or a bare JSON array.
func decodeBatch(body []byte) ([]batchItem, error) {
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		var items []batchItem
		err := json.Unmarshal(trimmed, &items)
		return items, err
	}
	var wrapped struct {
		Items []batchItem `json:"items"`
	}
	err := json.Unmarshal(body, &wrapped)
	return wrapped.Items, err
}

func (r *Registry) handleExtractBatch(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	defaultEngine := req.URL.Query().Get("engine")
	reject := func(status int, msg string) {
		r.metrics.errors.Inc()
		writeError(w, status, defaultEngine, msg)
	}
	if req.Method != http.MethodPost {
		reject(http.StatusMethodNotAllowed, "POST required")
		return
	}
	buf, status, msg := r.readBody(req, MaxBatchBytes)
	defer bodyPool.Put(buf)
	if status != 0 {
		writeError(w, status, defaultEngine, msg)
		return
	}
	if buf.Len() > MaxBatchBytes {
		reject(http.StatusRequestEntityTooLarge, fmt.Sprintf("batch exceeds %d bytes", MaxBatchBytes))
		return
	}
	// Decoding copies every page out of buf into its own string.
	batch, err := decodeBatch(buf.Bytes())
	switch {
	case err != nil:
		reject(http.StatusBadRequest, "decoding batch: "+err.Error())
		return
	case len(batch) == 0:
		reject(http.StatusBadRequest, "empty batch")
		return
	case len(batch) > MaxBatchItems:
		reject(http.StatusBadRequest, fmt.Sprintf("batch has %d items, limit %d", len(batch), MaxBatchItems))
		return
	}
	r.metrics.batches.Inc()
	r.metrics.batchPages.Add(int64(len(batch)))
	ctx := req.Context()

	// Validation + dedupe pass: every item either fails early or joins the
	// item that extracts for its content address.  Duplicates within the
	// batch collapse before any cache or pipeline work happens.
	items := make([]item, len(batch))
	defer r.journalPanic(items, start)
	byKey := map[excache.Key]*item{}
	var leads []*item
	for i, bi := range batch {
		it := &items[i]
		it.engine, it.html, it.query = bi.Engine, bi.HTML, parseQuery(bi.Query)
		if it.engine == "" {
			it.engine = defaultEngine
		}
		r.sample(ctx, it)
		if it.jev != nil {
			it.jev.Batch, it.jev.BatchIndex = true, i
		}
		if !r.resolve(it) || !r.checkSize(it, len(it.html)) {
			continue
		}
		key := it.contentKey()
		if lead := byKey[key]; lead != nil {
			it.lead = lead
			continue
		}
		byKey[key] = it
		leads = append(leads, it)
	}

	// Fan the unique items through the worker pool.  Each takes its own
	// admission slot — the batch holds at most workers slots at once and
	// every page is accounted, exactly as if it had arrived alone.  A
	// worker panic propagates through par's re-raise to the recoverer, and
	// the deferred release runs during the unwind, so no slot leaks.
	par.ForEachIndex(len(leads), par.Workers(0), func(n int) {
		if it := leads[n]; r.admit(ctx, it) {
			defer r.release()
			r.extract(ctx, it)
		}
	})

	results := make([]batchItemResult, len(items))
	for i := range items {
		it := &items[i]
		if it.lead != nil {
			it.adopt()
		}
		res := &results[i]
		res.Engine, res.Status, res.Cached, res.Error = it.engine, it.status, it.cached, it.msg
		if it.mis != nil {
			res.OwnerShard = &it.mis.OwnerShard
		}
		if it.status == http.StatusOK {
			res.Result = json.RawMessage(it.entry.Body)
		}
	}
	total := time.Since(start)
	for i := range items {
		r.journalItem(&items[i], total)
	}
	writeBatchResponse(w, results)
	for _, it := range leads {
		r.afterResponse(it)
	}
}

// writeBatchResponse assembles the batch response by hand.  Each OK item's
// Result is an already-serialized /extract body; running the whole
// response through the indenting encoder would re-tokenize every body byte
// (the dominant cost of an all-hit batch), so the per-item metadata is
// marshaled normally and the result bodies are spliced in verbatim.
func writeBatchResponse(w http.ResponseWriter, results []batchItemResult) {
	var buf bytes.Buffer
	grow := 32
	for i := range results {
		grow += len(results[i].Result) + 128
	}
	buf.Grow(grow)
	buf.WriteString(`{"results":[`)
	for i := range results {
		if i > 0 {
			buf.WriteByte(',')
		}
		body := results[i].Result
		results[i].Result = nil
		meta, _ := json.Marshal(&results[i]) // cannot fail: fixed field types
		results[i].Result = body
		if len(body) == 0 {
			buf.Write(meta)
			continue
		}
		buf.Write(meta[:len(meta)-1]) // reopen the object brace
		if len(meta) > 2 {
			buf.WriteByte(',')
		}
		buf.WriteString(`"result":`)
		buf.Write(bytes.TrimRight(body, "\n"))
		buf.WriteByte('}')
	}
	buf.WriteString("]}\n")
	writeBody(w, buf.Bytes())
}
