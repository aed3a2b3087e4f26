package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mse/internal/dom"
)

// TestPanicRecovery exercises the acceptance scenario end to end: a
// handler that panics mid-extraction must produce a JSON 500, increment
// panics_total, leak no pooled arena, and leave the server serving.
func TestPanicRecovery(t *testing.T) {
	reg, eng := testRegistry(t)
	reg.SetAccessLog(slog.New(slog.NewTextHandler(io.Discard, nil)))
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	extractTestHook = func(string) { panic("injected test panic") }
	defer func() { extractTestHook = nil }()

	before := dom.ArenaStatsSnapshot()
	resp, err := http.Post(srv.URL+"/extract?engine=demo", "text/html",
		strings.NewReader(eng.Page(11).HTML))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body %s", resp.StatusCode, body)
	}
	var ej errorJSON
	if err := json.Unmarshal(body, &ej); err != nil {
		t.Fatalf("500 body is not JSON: %v: %s", err, body)
	}
	if ej.Error == "" || ej.Engine != "demo" {
		t.Fatalf("unexpected error payload: %+v", ej)
	}
	if got := reg.metrics.panics.Value(); got != 1 {
		t.Fatalf("panics_total = %d, want 1", got)
	}
	// The deferred lease release must have run during the unwind: every
	// arena acquired since the baseline has been released again.
	after := dom.ArenaStatsSnapshot()
	if acq, rel := after.Acquires-before.Acquires, after.Releases-before.Releases; acq != rel {
		t.Fatalf("arena leak across panic: %d acquired, %d released", acq, rel)
	}

	// The server must keep serving: the same request without the panic
	// hook succeeds.
	extractTestHook = nil
	resp2, err := http.Post(srv.URL+"/extract?engine=demo", "text/html",
		strings.NewReader(eng.Page(11).HTML))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-panic request status = %d, want 200", resp2.StatusCode)
	}
}

// TestPanicJournals500 checks that a request unwinding with a panic still
// writes its journal lines, with the 500 the recoverer answers: on
// /extract, and for every sampled item of a /extract/batch (an in-batch
// duplicate included).
func TestPanicJournals500(t *testing.T) {
	reg, eng := testRegistry(t)
	reg.SetAccessLog(slog.New(slog.NewTextHandler(io.Discard, nil)))
	var journal bytes.Buffer
	reg.SetJournal(&journal, 1)
	h := reg.Handler()

	extractTestHook = func(string) { panic("injected test panic") }
	defer func() { extractTestHook = nil }()

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/extract?engine=demo",
		strings.NewReader(eng.Page(11).HTML)))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("/extract status = %d, want 500", rr.Code)
	}
	batch, err := json.Marshal(map[string]any{"items": []map[string]string{
		{"html": eng.Page(12).HTML}, {"html": eng.Page(13).HTML}, {"html": eng.Page(12).HTML},
	}})
	if err != nil {
		t.Fatal(err)
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/extract/batch?engine=demo", bytes.NewReader(batch)))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("/extract/batch status = %d, want 500", rr.Code)
	}

	var lines []JournalEvent
	sc := bufio.NewScanner(&journal)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ev JournalEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("journal line %q: %v", sc.Text(), err)
		}
		lines = append(lines, ev)
	}
	if len(lines) != 4 {
		t.Fatalf("journal has %d lines, want 4 (1 single + 3 batch items):\n%s", len(lines), journal.String())
	}
	for i, ev := range lines {
		if ev.Status != http.StatusInternalServerError || ev.Engine != "demo" {
			t.Errorf("line %d: status %d engine %q, want 500 demo", i, ev.Status, ev.Engine)
		}
		if wantBatch := i > 0; ev.Batch != wantBatch || (wantBatch && ev.BatchIndex != i-1) {
			t.Errorf("line %d: batch=%v index=%d", i, ev.Batch, ev.BatchIndex)
		}
	}
}

// TestExtractDeadlineMaps503 feeds the handler a request whose deadline
// has already expired: the pipeline must abort with ErrCanceled and the
// handler must map it to 503, counted as canceled — not as an engine
// error.
func TestExtractDeadlineMaps503(t *testing.T) {
	reg, eng := testRegistry(t)

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/extract?engine=demo",
		strings.NewReader(eng.Page(12).HTML)).WithContext(ctx)
	rr := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rr, req)

	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503; body %s", rr.Code, rr.Body.String())
	}
	if got := reg.metrics.canceled.Value(); got != 1 {
		t.Fatalf("canceled_total = %d, want 1", got)
	}
	if got := reg.metrics.engine("demo").errors.Value(); got != 0 {
		t.Fatalf("engine errors = %d, want 0 (client deadline is not an engine fault)", got)
	}
}

// TestExtractClientCancelMaps499: a canceled (not deadline-expired)
// context maps to the 499 client-closed-request status.
func TestExtractClientCancelMaps499(t *testing.T) {
	reg, eng := testRegistry(t)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/extract?engine=demo",
		strings.NewReader(eng.Page(13).HTML)).WithContext(ctx)
	rr := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rr, req)

	if rr.Code != statusClientClosedRequest {
		t.Fatalf("status = %d, want %d; body %s", rr.Code, statusClientClosedRequest, rr.Body.String())
	}
	if got := reg.metrics.canceled.Value(); got != 1 {
		t.Fatalf("canceled_total = %d, want 1", got)
	}
}
