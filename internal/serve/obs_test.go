package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mse/internal/obs"
)

func TestMetricsEndpoint(t *testing.T) {
	reg, e := testRegistry(t)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	// One successful extraction and one unknown-engine error.
	gp := e.Page(6)
	resp, err := http.Post(srv.URL+"/extract?engine=demo", "text/html", strings.NewReader(gp.HTML))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, _ = http.Post(srv.URL+"/extract?engine=nope", "text/html", strings.NewReader("<p>x</p>"))
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out struct {
		UptimeSeconds float64 `json:"uptime_seconds"`
		Metrics       struct {
			Counters   map[string]int64 `json:"counters"`
			Gauges     map[string]int64 `json:"gauges"`
			Histograms map[string]struct {
				Count int64   `json:"count"`
				P50Ms float64 `json:"p50_ms"`
				P95Ms float64 `json:"p95_ms"`
				P99Ms float64 `json:"p99_ms"`
			} `json:"histograms"`
		} `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.UptimeSeconds <= 0 {
		t.Errorf("uptime = %v", out.UptimeSeconds)
	}
	c := out.Metrics.Counters
	if c["engine.demo.requests"] != 1 {
		t.Errorf("demo requests = %d, want 1", c["engine.demo.requests"])
	}
	if c["engine.demo.sections"] <= 0 || c["engine.demo.records"] <= 0 {
		t.Errorf("demo sections/records = %d/%d, want > 0",
			c["engine.demo.sections"], c["engine.demo.records"])
	}
	if c["http.errors_total"] != 1 {
		t.Errorf("errors_total = %d, want 1", c["http.errors_total"])
	}
	// The unknown engine must not have created per-engine metrics.
	if _, ok := c["engine.nope.requests"]; ok {
		t.Errorf("unknown engine grew the metrics map")
	}
	// requests_total covers /extract calls and this /metrics call.
	if c["http.requests_total"] < 3 {
		t.Errorf("requests_total = %d, want >= 3", c["http.requests_total"])
	}
	h := out.Metrics.Histograms["engine.demo.latency"]
	if h.Count != 1 {
		t.Errorf("latency count = %d, want 1", h.Count)
	}
	if h.P50Ms < 0 || h.P95Ms < h.P50Ms || h.P99Ms < h.P95Ms {
		t.Errorf("quantiles not ordered: p50=%v p95=%v p99=%v", h.P50Ms, h.P95Ms, h.P99Ms)
	}
}

func TestStatusz(t *testing.T) {
	reg, e := testRegistry(t)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	gp := e.Page(6)
	resp, err := http.Post(srv.URL+"/extract?engine=demo", "text/html", strings.NewReader(gp.HTML))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"uptime:", "in-flight:", "engine", "demo", "p50"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("statusz missing %q:\n%s", want, body)
		}
	}
}

// TestStatuszQuantileMicroseconds checks that /statusz prints a
// sub-millisecond latency quantile to the microsecond: three 130µs
// extractions interpolate to 199µs at p99 inside the (100µs, 200µs]
// bucket.
func TestStatuszQuantileMicroseconds(t *testing.T) {
	h := obs.NewHistogram(nil)
	for i := 0; i < 3; i++ {
		h.Observe(130 * time.Microsecond)
	}
	if got := fmtQuantile(h, 0.99); got != "199µs" {
		t.Fatalf("p99 = %s, want 199µs", got)
	}
}

// Test413JSON asserts the oversized-body path returns 413 with a JSON
// body naming the engine.
func Test413JSON(t *testing.T) {
	reg, _ := testRegistry(t)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	big := strings.Repeat("x", MaxPageBytes+10)
	resp, err := http.Post(srv.URL+"/extract?engine=demo", "text/html", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	var e struct {
		Error  string `json:"error"`
		Engine string `json:"engine"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("413 body is not JSON: %v", err)
	}
	if e.Engine != "demo" || e.Error == "" {
		t.Fatalf("413 body = %+v", e)
	}
}

// TestErrorResponsesIncludeEngine asserts the other error paths name the
// engine too.
func TestErrorResponsesIncludeEngine(t *testing.T) {
	reg, _ := testRegistry(t)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/extract?engine=ghost", "text/html", strings.NewReader("<p>x</p>"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e struct {
		Error  string `json:"error"`
		Engine string `json:"engine"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Engine != "ghost" || !strings.Contains(e.Error, "ghost") {
		t.Fatalf("404 body = %+v", e)
	}
}

func TestAccessLog(t *testing.T) {
	reg, e := testRegistry(t)
	var buf bytes.Buffer
	reg.SetAccessLog(slog.New(slog.NewTextHandler(&buf, nil)))
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	gp := e.Page(6)
	resp, err := http.Post(srv.URL+"/extract?engine=demo", "text/html", strings.NewReader(gp.HTML))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	line := buf.String()
	for _, want := range []string{"method=POST", "path=/extract", "engine=demo", "status=200", "bytes=", "duration="} {
		if !strings.Contains(line, want) {
			t.Errorf("access log missing %q: %s", want, line)
		}
	}
}

// TestGracefulShutdown starts the real server loop, parks a request in a
// slow handler, cancels the run context and asserts the in-flight request
// still completes before Run returns.
func TestGracefulShutdown(t *testing.T) {
	reg, _ := testRegistry(t)
	mux := http.NewServeMux()
	release := make(chan struct{})
	entered := make(chan struct{})
	mux.HandleFunc("/slow", func(w http.ResponseWriter, req *http.Request) {
		close(entered)
		<-release
		fmt.Fprintln(w, "slow done")
	})
	mux.Handle("/", reg.Handler())

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ln.Addr().String(), mux)
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() {
		runDone <- Run(ctx, srv, RunConfig{
			DrainTimeout: 5 * time.Second,
			InFlight:     reg.Metrics().InFlight,
			Listener:     ln,
		})
	}()

	reqDone := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err != nil {
			reqDone <- "error: " + err.Error()
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		reqDone <- string(body)
	}()

	select {
	case <-entered: // the request is in flight
	case err := <-runDone:
		t.Fatalf("Run returned early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("request never reached the handler")
	}
	cancel() // trigger shutdown while the request is in flight

	select {
	case err := <-runDone:
		t.Fatalf("Run returned %v before draining the in-flight request", err)
	case <-time.After(100 * time.Millisecond):
		// Good: Run is waiting on the drain.
	}

	close(release)
	select {
	case body := <-reqDone:
		if !strings.Contains(body, "slow done") {
			t.Fatalf("in-flight request body = %q", body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run = %v, want nil after clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after drain")
	}

	// The listener is closed: new connections must fail.
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}
