package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mse/internal/core"
	"mse/internal/synth"
)

// testWrapper trains the demo wrapper once per test binary; every test
// gets its own Registry loaded from the cached JSON.
var testWrapper = struct {
	once   sync.Once
	engine *synth.Engine
	data   []byte
	err    error
}{}

func testRegistry(t *testing.T) (*Registry, *synth.Engine) {
	t.Helper()
	testWrapper.once.Do(func() {
		e := synth.NewEngine(55, 3, true)
		testWrapper.engine = e
		var samples []*core.SamplePage
		for q := 0; q < 5; q++ {
			gp := e.Page(q)
			samples = append(samples, &core.SamplePage{HTML: gp.HTML, Query: gp.Query})
		}
		ew, err := core.BuildWrapper(samples, core.DefaultOptions())
		if err != nil {
			testWrapper.err = err
			return
		}
		testWrapper.data, testWrapper.err = json.Marshal(ew)
	})
	if testWrapper.err != nil {
		t.Fatal(testWrapper.err)
	}
	reg := NewRegistry(core.DefaultOptions())
	if err := reg.Add("demo", testWrapper.data); err != nil {
		t.Fatal(err)
	}
	return reg, testWrapper.engine
}

func TestHealthz(t *testing.T) {
	reg, _ := testRegistry(t)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestEnginesList(t *testing.T) {
	reg, _ := testRegistry(t)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/engines")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var names []string
	if err := json.NewDecoder(resp.Body).Decode(&names); err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "demo" {
		t.Fatalf("names = %v", names)
	}
}

func TestExtractEndpoint(t *testing.T) {
	reg, e := testRegistry(t)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	gp := e.Page(7)
	q := strings.Join(gp.Query, "+")
	resp, err := http.Post(srv.URL+"/extract?engine=demo&q="+q, "text/html",
		strings.NewReader(gp.HTML))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out struct {
		Engine   string `json:"engine"`
		Sections []struct {
			Heading string `json:"heading"`
			Records []struct {
				Lines []string `json:"lines"`
				Units []struct {
					Type string `json:"type"`
					Text string `json:"text"`
				} `json:"units"`
			} `json:"records"`
		} `json:"sections"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Engine != "demo" {
		t.Fatalf("engine = %q", out.Engine)
	}
	if len(out.Sections) == 0 {
		t.Fatalf("no sections extracted over HTTP")
	}
	// Records come back annotated.
	foundTitle := false
	for _, s := range out.Sections {
		for _, r := range s.Records {
			for _, u := range r.Units {
				if u.Type == "title" && u.Text != "" {
					foundTitle = true
				}
			}
		}
	}
	if !foundTitle {
		t.Fatalf("no annotated titles in response")
	}
}

func TestExtractErrors(t *testing.T) {
	reg, _ := testRegistry(t)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	// GET not allowed.
	resp, _ := http.Get(srv.URL + "/extract?engine=demo")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Missing engine.
	resp, _ = http.Post(srv.URL+"/extract", "text/html", strings.NewReader("<p>x</p>"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing engine status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Unknown engine.
	resp, _ = http.Post(srv.URL+"/extract?engine=nope", "text/html", strings.NewReader("<p>x</p>"))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown engine status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Oversized body.
	big := strings.Repeat("x", MaxPageBytes+10)
	resp, _ = http.Post(srv.URL+"/extract?engine=demo", "text/html", strings.NewReader(big))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestRegistryAddRejectsGarbage(t *testing.T) {
	reg := NewRegistry(core.DefaultOptions())
	if err := reg.Add("bad", []byte("{")); err == nil {
		t.Fatalf("garbage wrapper accepted")
	}
	if len(reg.Names()) != 0 {
		t.Fatalf("garbage wrapper registered")
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	reg, e := testRegistry(t)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	gp := e.Page(6)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			resp, err := http.Post(srv.URL+"/extract?engine=demo", "text/html",
				strings.NewReader(gp.HTML))
			if err == nil {
				resp.Body.Close()
			}
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestExtractMalformedHTML pins the contract that broken markup is not an
// error: the parser is total, so the service answers 200 with whatever
// sections (usually none) the wrapper finds, and the sections array is a
// JSON array, never null.
func TestExtractMalformedHTML(t *testing.T) {
	reg, _ := testRegistry(t)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	for _, body := range []string{
		"",
		"<<<>><table><tr><td<td></tr>",
		"<html><body><p>unterminated",
		"\x00\xff\xfe<div>\x80</div>",
	} {
		resp, err := http.Post(srv.URL+"/extract?engine=demo&q=x", "text/html",
			strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Engine   string            `json:"engine"`
			Sections []json.RawMessage `json:"sections"`
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("body %q: status = %d (%s)", body, resp.StatusCode, raw)
		}
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("body %q: bad JSON: %v", body, err)
		}
		if out.Sections == nil {
			t.Fatalf("body %q: sections is null, want []", body)
		}
	}
}

// TestConcurrentAddDuringExtraction hammers /extract while another
// goroutine keeps replacing the wrapper under the same engine name.  Under
// -race this proves a hot wrapper swap cannot tear an in-flight
// extraction or corrupt the pooled parse/render/apply state.
func TestConcurrentAddDuringExtraction(t *testing.T) {
	reg, e := testRegistry(t)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := reg.Add("demo", testWrapper.data); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	gp := e.Page(8)
	q := strings.Join(gp.Query, "+")
	var clients sync.WaitGroup
	for i := 0; i < 4; i++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for j := 0; j < 10; j++ {
				resp, err := http.Post(srv.URL+"/extract?engine=demo&q="+q,
					"text/html", strings.NewReader(gp.HTML))
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status = %d", resp.StatusCode)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	clients.Wait()
	close(stop)
	swapper.Wait()
}

// TestMetricsReportPools checks that the /metrics snapshot carries the
// arena/scratch pool counters after traffic has flowed through the pooled
// fast path.
func TestMetricsReportPools(t *testing.T) {
	reg, e := testRegistry(t)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	gp := e.Page(9)
	resp, err := http.Post(srv.URL+"/extract?engine=demo&q="+strings.Join(gp.Query, "+"),
		"text/html", strings.NewReader(gp.HTML))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Pools *struct {
			ParseArena struct {
				Acquires int64 `json:"acquires"`
			} `json:"parse_arena"`
		} `json:"pools"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Pools == nil {
		t.Fatalf("metrics snapshot has no pools section")
	}
	if out.Pools.ParseArena.Acquires == 0 {
		t.Fatalf("an extraction recorded no parse-arena acquires")
	}
}
