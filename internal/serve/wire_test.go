package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"mse/internal/shard"
)

// wireCase is one pinned /extract exchange: the request, the registry
// state it meets, and the exact bytes that must come back.
type wireCase struct {
	name   string
	method string
	engine string // ?engine=, also the batch item's engine
	page   int    // synth page index; -1 for a synthetic body
	body   string // used when page < 0
	noQ    bool   // omit ?q= (the item's "q")
	// setup prepares a fresh registry; the returned func (if any) undoes
	// it after both endpoints ran.
	setup func(t *testing.T, reg *Registry) func()
	// ctx derives the request context (nil: background).
	ctx func() (context.Context, context.CancelFunc)
	// repeat sends the request this many times before the pinned one
	// (cache warm-up for the hit case).
	repeat     int
	status     int
	retryAfter string
	wantBody   string // exact body bytes, or
	wantSHA256 string // hex digest of the body (200 cases)
	ownerShard *int
}

// TestExtractWireGolden pins the /extract wire format byte for byte, and
// checks that /extract/batch with the same page as a one-item batch
// answers with the same status, owner shard and (on 200) result bytes.
// Either endpoint drifting alone fails; so does both drifting together,
// which TestBatchMatchesSingle cannot see.
func TestExtractWireGolden(t *testing.T) {
	const shards = 3
	owner := shard.NewRing(shards).Owner("demo")
	withCache := func(t *testing.T, reg *Registry) func() {
		reg.SetCache(16 << 20)
		return nil
	}
	occupy := func(timeout time.Duration) func(t *testing.T, reg *Registry) func() {
		return func(t *testing.T, reg *Registry) func() {
			reg.SetLimits(1, timeout)
			if _, err := reg.limiter.acquire(context.Background()); err != nil {
				t.Fatal(err)
			}
			return reg.limiter.release
		}
	}
	canceled := func() (context.Context, context.CancelFunc) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return ctx, cancel
	}
	expired := func() (context.Context, context.CancelFunc) {
		return context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	}

	cases := []wireCase{
		{name: "miss-30", method: http.MethodPost, engine: "demo", page: 30, status: 200,
			wantSHA256: "3a5d9d02d3416642a5a17782b30c82fdde9821add131da9ac7875341b941e3c6"},
		{name: "miss-31", method: http.MethodPost, engine: "demo", page: 31, status: 200,
			wantSHA256: "7e759b3a8719620f7e608bd3f4d86ebb31ca6c47bef15dc5c3b65287d6922fee"},
		{name: "miss-32-noq", method: http.MethodPost, engine: "demo", page: 32, noQ: true, status: 200,
			wantSHA256: "5b4de99f7b183e07f4f44b2d4982bf82cd5c766b2c3096f1bab79c631094082c"},
		{name: "hit-30", method: http.MethodPost, engine: "demo", page: 30, setup: withCache, repeat: 1,
			status: 200, wantSHA256: "3a5d9d02d3416642a5a17782b30c82fdde9821add131da9ac7875341b941e3c6"},
		{name: "hit-31", method: http.MethodPost, engine: "demo", page: 31, setup: withCache, repeat: 2,
			status: 200, wantSHA256: "7e759b3a8719620f7e608bd3f4d86ebb31ca6c47bef15dc5c3b65287d6922fee"},
		{name: "405", method: http.MethodGet, engine: "demo", page: 30, status: 405,
			wantBody: "{\n  \"error\": \"POST required\",\n  \"engine\": \"demo\"\n}\n"},
		{name: "400-missing-engine", method: http.MethodPost, engine: "", page: 30, status: 400,
			wantBody: "{\n  \"error\": \"missing ?engine=\"\n}\n"},
		{name: "404", method: http.MethodPost, engine: "nosuch", page: 30, status: 404,
			wantBody: "{\n  \"error\": \"unknown engine \\\"nosuch\\\"\",\n  \"engine\": \"nosuch\"\n}\n"},
		{name: "413", method: http.MethodPost, engine: "demo", page: -1,
			body: strings.Repeat("x", MaxPageBytes+1), status: 413,
			wantBody: "{\n  \"error\": \"page exceeds 8388608 bytes\",\n  \"engine\": \"demo\"\n}\n"},
		{name: "421", method: http.MethodPost, engine: "demo", page: 30, status: 421,
			setup: func(t *testing.T, reg *Registry) func() {
				if err := reg.SetShard((owner+1)%shards, shards); err != nil {
					t.Fatal(err)
				}
				return nil
			},
			ownerShard: &owner,
			wantBody:   "{\n  \"error\": \"engine \\\"demo\\\" is owned by shard 0/3 (this is shard 1)\",\n  \"engine\": \"demo\",\n  \"owner_shard\": 0,\n  \"shards\": 3\n}\n"},
		{name: "429", method: http.MethodPost, engine: "demo", page: 30, status: 429,
			setup: occupy(10 * time.Millisecond), retryAfter: "1",
			wantBody: "{\n  \"error\": \"server at capacity, retry later\",\n  \"engine\": \"demo\"\n}\n"},
		{name: "499-queued-cancel", method: http.MethodPost, engine: "demo", page: 30, status: 499,
			setup: occupy(5 * time.Second), ctx: canceled,
			wantBody: "{\n  \"error\": \"request canceled while queued\",\n  \"engine\": \"demo\"\n}\n"},
		{name: "503-deadline", method: http.MethodPost, engine: "demo", page: 30, status: 503,
			ctx:      expired,
			wantBody: "{\n  \"error\": \"deadline exceeded during extraction\",\n  \"engine\": \"demo\"\n}\n"},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg, eng := testRegistry(t)
			if tc.setup != nil {
				if undo := tc.setup(t, reg); undo != nil {
					defer undo()
				}
			}
			html, q := tc.body, ""
			if tc.page >= 0 {
				gp := eng.Page(tc.page)
				html, q = gp.HTML, strings.Join(gp.Query, "+")
			}
			if tc.noQ {
				q = ""
			}
			ctx := context.Background()
			if tc.ctx != nil {
				var cancel context.CancelFunc
				ctx, cancel = tc.ctx()
				defer cancel()
			}

			// The single endpoint.
			params := url.Values{}
			if tc.engine != "" {
				params.Set("engine", tc.engine)
			}
			if q != "" {
				params.Set("q", q)
			}
			target := "/extract"
			if len(params) > 0 {
				target += "?" + params.Encode()
			}
			var rr *httptest.ResponseRecorder
			for i := 0; i <= tc.repeat; i++ {
				req := httptest.NewRequest(tc.method, target, strings.NewReader(html)).WithContext(ctx)
				rr = httptest.NewRecorder()
				reg.Handler().ServeHTTP(rr, req)
			}
			single := rr.Body.Bytes()
			sum := sha256.Sum256(single)
			if rr.Code != tc.status {
				t.Errorf("single status = %d, want %d", rr.Code, tc.status)
			}
			if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("single Content-Type = %q, want application/json", ct)
			}
			if ra := rr.Header().Get("Retry-After"); ra != tc.retryAfter {
				t.Errorf("single Retry-After = %q, want %q", ra, tc.retryAfter)
			}
			if tc.wantSHA256 != "" {
				if got := hex.EncodeToString(sum[:]); got != tc.wantSHA256 {
					t.Errorf("single body sha256 = %s, want %s", got, tc.wantSHA256)
				}
			} else if string(single) != tc.wantBody {
				t.Errorf("single body = %q, want %q", single, tc.wantBody)
			}

			// The same page as a one-item batch.
			bparams := url.Values{}
			if tc.engine != "" && tc.method != http.MethodPost {
				bparams.Set("engine", tc.engine)
			}
			btarget := "/extract/batch"
			if len(bparams) > 0 {
				btarget += "?" + bparams.Encode()
			}
			item := map[string]string{"html": html}
			if tc.engine != "" {
				item["engine"] = tc.engine
			}
			if q != "" {
				item["q"] = q
			}
			bbody, _ := json.Marshal(map[string]any{"items": []any{item}})
			req := httptest.NewRequest(tc.method, btarget, bytes.NewReader(bbody)).WithContext(ctx)
			br := httptest.NewRecorder()
			reg.Handler().ServeHTTP(br, req)
			if tc.method != http.MethodPost {
				// A request-level rejection: same status and body.
				if br.Code != tc.status || br.Body.String() != string(single) {
					t.Errorf("batch = %d %q, want %d %q", br.Code, br.Body.String(), tc.status, single)
				}
				return
			}
			if br.Code != http.StatusOK {
				t.Fatalf("batch status = %d: %s", br.Code, br.Body.String())
			}
			if ct := br.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("batch Content-Type = %q, want application/json", ct)
			}
			var resp batchResponse
			if err := json.Unmarshal(br.Body.Bytes(), &resp); err != nil {
				t.Fatalf("batch body: %v\n%.300s", err, br.Body.String())
			}
			if len(resp.Results) != 1 {
				t.Fatalf("batch results = %d, want 1", len(resp.Results))
			}
			got := resp.Results[0]
			if got.Status != tc.status {
				t.Errorf("batch item status = %d (%s), want %d", got.Status, got.Error, tc.status)
			}
			switch {
			case tc.ownerShard == nil && got.OwnerShard != nil:
				t.Errorf("batch item owner_shard = %d, want none", *got.OwnerShard)
			case tc.ownerShard != nil && (got.OwnerShard == nil || *got.OwnerShard != *tc.ownerShard):
				t.Errorf("batch item owner_shard = %v, want %d", got.OwnerShard, *tc.ownerShard)
			}
			if tc.status == http.StatusOK {
				if want := bytes.TrimRight(single, "\n"); !bytes.Equal(got.Result, want) {
					t.Errorf("batch result differs from /extract body\nbatch:  %.200s\nsingle: %.200s", got.Result, want)
				}
			} else if got.Error == "" || len(got.Result) != 0 {
				t.Errorf("batch error item = %+v, want an error and no result", got)
			}
		})
	}
}
