package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mse/internal/core"
	"mse/internal/quality"
	"mse/internal/relearn"
	"mse/internal/synth"
)

// postPageBody is postPage returning the response body too, for tests that
// check what was extracted, not just that something was.
func postPageBody(t *testing.T, client *http.Client, base, engine string, gp *synth.GenPage) (int, string) {
	t.Helper()
	q := strings.Join(gp.Query, "+")
	resp, err := client.Post(
		fmt.Sprintf("%s/extract?engine=%s&q=%s", base, engine, q),
		"text/html", strings.NewReader(gp.HTML))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(body)
}

// relearnzWire is the decoded form of GET /relearnz (State serializes as a
// string, so the report cannot round-trip through relearn.Report).
type relearnzWire struct {
	Enabled bool           `json:"enabled"`
	Config  relearn.Config `json:"config"`
	Engines []struct {
		Engine              string                `json:"engine"`
		State               string                `json:"state"`
		ConsecutiveFailures int                   `json:"consecutive_failures"`
		Attempts            int64                 `json:"attempts"`
		Swaps               int64                 `json:"swaps"`
		CanaryRejects       int64                 `json:"canary_rejects"`
		ReservoirPages      int                   `json:"reservoir_pages"`
		LastError           string                `json:"last_error"`
		LastCanary          *relearn.CanaryResult `json:"last_canary"`
	} `json:"engines"`
}

func getRelearnz(t *testing.T, client *http.Client, base string) relearnzWire {
	t.Helper()
	resp, err := client.Get(base + "/relearnz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/relearnz status %d", resp.StatusCode)
	}
	var out relearnzWire
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("/relearnz: %v", err)
	}
	return out
}

// TestRelearnHealLoopEndToEnd is the acceptance run for the self-healing
// lifecycle: an engine redesigns its template mid-run, the drift detector
// escalates to DRIFTED, the relearn controller re-learns a wrapper from the
// sampled drifted traffic, canary-validates it against the incumbent and
// hot-swaps it — all while every served request keeps returning 200.  After
// the swap the engine extracts the new template correctly and its verdict
// re-warms to OK on a fresh baseline.
func TestRelearnHealLoopEndToEnd(t *testing.T) {
	// Engine (21, 2, multi): its Drifted() redesign fully breaks the old
	// wrapper (zero sections extracted), which makes the canary comparison
	// unambiguous.
	eng := synth.NewEngine(21, 2, true)
	reg := NewRegistry(core.DefaultOptions())
	if err := reg.Add("beta", trainWrapper(t, eng)); err != nil {
		t.Fatal(err)
	}
	qcfg := quality.Config{WarmupPages: 12, Window: 8}
	reg.SetQualityConfig(qcfg)
	var journalBuf bytes.Buffer
	reg.SetJournal(&journalBuf, 1)
	snapPath := filepath.Join(t.TempDir(), "fleet.snap")
	reg.SetSnapshotPath(snapPath)

	rcfg := relearn.Config{
		SampleBytes:  4 << 20,
		MaxPages:     24,
		MinPages:     4,
		TrainPages:   5,
		HoldoutPages: 2,
		Backoff:      20 * time.Millisecond,
		MaxBackoff:   50 * time.Millisecond,
		MaxFailures:  10,
	}
	ctrl := reg.EnableRelearn(rcfg)
	defer ctrl.Close()

	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	client := srv.Client()

	// The drifting engine: original template up to query index warm,
	// redesigned template from there on.
	warm := qcfg.WarmupPages + 4
	de := synth.NewScheduledEngine(eng)
	if err := de.Cutover(warm, eng.Drifted()); err != nil {
		t.Fatal(err)
	}

	// Phase 1: warm the drift baseline on the original template.
	for q := 0; q < warm; q++ {
		if st := postPage(t, client, srv.URL, "beta", de.Page(q)); st != http.StatusOK {
			t.Fatalf("warmup page %d: status %d", q, st)
		}
	}
	if v := reg.Quality().Verdict("beta"); v != quality.OK {
		t.Fatalf("after warmup, verdict = %v, want OK", v)
	}

	// Phase 2: the template flips.  Keep serving; the detect/adapt loop
	// must notice, relearn and swap without a single failed request.
	const maxDriftPages = 400
	healedAfter := -1
	q := warm
	for ; q < warm+maxDriftPages; q++ {
		st := postPage(t, client, srv.URL, "beta", de.Page(q))
		if st != http.StatusOK {
			t.Fatalf("drifted page %d: status %d (serving must never fail while healing)", q, st)
		}
		if reg.Quality().Verdict("beta") != quality.OK {
			// Yield to the background job between pages once healing can
			// be in flight.  (The swap itself resets the verdict to OK, so
			// DRIFTED is asserted from the journal below, not polled here —
			// a fast heal can outrun the poll.)
			time.Sleep(2 * time.Millisecond)
		}
		if reg.Relearn().Stats().Swaps >= 1 {
			healedAfter = q - warm + 1
			q++
			break
		}
	}
	if healedAfter < 0 {
		rep, _ := json.Marshal(reg.Relearn().Report())
		t.Fatalf("no swap within %d drifted pages\nrelearn: %s", maxDriftPages, rep)
	}
	t.Logf("healed after %d drifted pages", healedAfter)

	// The swap went through the ordinary Add path: generation bumped,
	// drift baseline reset so the new wrapper re-warms against its own
	// normal.
	if g := reg.Status()["beta"].Generation; g != 2 {
		t.Fatalf("generation = %d after heal, want 2", g)
	}
	if v := reg.Quality().Verdict("beta"); v != quality.OK {
		t.Fatalf("verdict = %v after swap, want OK (baseline reset)", v)
	}

	// Phase 3: the healed wrapper serves the new template.  Every ground
	// truth record must be recovered, and the verdict must stay OK across
	// a full re-warm plus a verdict window.
	post := qcfg.WarmupPages + qcfg.Window + 4
	for i := 0; i < post; i++ {
		gp := de.Page(q)
		q++
		st, body := postPageBody(t, client, srv.URL, "beta", gp)
		if st != http.StatusOK {
			t.Fatalf("post-heal page %d: status %d", gp.QueryIndex, st)
		}
		for _, gts := range gp.Truth.Sections {
			for _, gtr := range gts.Records {
				if !strings.Contains(body, gtr.Marker) {
					t.Fatalf("post-heal page %d: record %s not extracted", gp.QueryIndex, gtr.Marker)
				}
			}
		}
		if v := reg.Quality().Verdict("beta"); v != quality.OK {
			t.Fatalf("post-heal page %d: verdict %v, want OK", gp.QueryIndex, v)
		}
	}

	// /relearnz reflects the healed lifecycle.
	rz := getRelearnz(t, client, srv.URL)
	if !rz.Enabled || len(rz.Engines) != 1 {
		t.Fatalf("/relearnz enabled=%v engines=%d, want enabled with 1 engine", rz.Enabled, len(rz.Engines))
	}
	er := rz.Engines[0]
	if er.Engine != "beta" || er.State != "IDLE" || er.Swaps != 1 || er.ConsecutiveFailures != 0 {
		t.Fatalf("/relearnz engine = %+v, want beta IDLE with 1 swap and no failures", er)
	}
	if er.LastCanary == nil || !er.LastCanary.Passed {
		t.Fatalf("/relearnz last_canary = %+v, want a passing canary", er.LastCanary)
	}
	if er.LastCanary.Candidate.Records <= er.LastCanary.Incumbent.Records {
		t.Fatalf("canary candidate records %d not above incumbent %d",
			er.LastCanary.Candidate.Records, er.LastCanary.Incumbent.Records)
	}

	// /metrics carries the lifecycle counters and the reservoir gauges.
	resp, err := client.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Metrics struct {
			Counters map[string]int64 `json:"counters"`
			Gauges   map[string]int64 `json:"gauges"`
		} `json:"metrics"`
		Relearn *struct {
			Enabled bool  `json:"enabled"`
			Jobs    int64 `json:"jobs"`
			Swaps   int64 `json:"swaps"`
		} `json:"relearn"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	resp.Body.Close()
	if got := metrics.Metrics.Counters["relearn.swaps_total"]; got != 1 {
		t.Fatalf("relearn.swaps_total = %d, want 1", got)
	}
	if got := metrics.Metrics.Counters["relearn.jobs_total"]; got < 1 {
		t.Fatalf("relearn.jobs_total = %d, want >= 1", got)
	}
	if metrics.Metrics.Gauges["relearn.reservoir_pages"] <= 0 {
		t.Fatalf("relearn.reservoir_pages gauge not positive")
	}
	if metrics.Relearn == nil || !metrics.Relearn.Enabled || metrics.Relearn.Swaps != 1 {
		t.Fatalf("/metrics relearn block = %+v, want enabled with 1 swap", metrics.Relearn)
	}

	// /statusz names the lifecycle.
	resp, err = client.Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	statusz, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"relearn: enabled=true", "swaps=1"} {
		if !strings.Contains(string(statusz), want) {
			t.Fatalf("/statusz missing %q:\n%s", want, statusz)
		}
	}

	// The swap was persisted: a fresh registry restored from the snapshot
	// resumes at generation 2 with the healed wrapper.
	f, err := os.Open(snapPath)
	if err != nil {
		t.Fatalf("snapshot not persisted after swap: %v", err)
	}
	reg2 := NewRegistry(core.DefaultOptions())
	n, err := reg2.LoadSnapshot(f)
	f.Close()
	if err != nil || n != 1 {
		t.Fatalf("restoring persisted snapshot: n=%d err=%v", n, err)
	}
	if g := reg2.Status()["beta"].Generation; g != 2 {
		t.Fatalf("restored generation = %d, want 2", g)
	}

	// Journal: lifecycle events are full journal lines with their own
	// correlation IDs.  Close everything first so no writer is in flight.
	srv.Close()
	ctrl.Close()
	kinds := map[string]int{}
	sawDrifted := false
	for _, line := range strings.Split(strings.TrimRight(journalBuf.String(), "\n"), "\n") {
		var ev JournalEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("journal line not JSON: %v\n%s", err, line)
		}
		if ev.Kind == "" {
			// Per-request extraction line; the detector must have read the
			// engine as DRIFTED at some point before the heal.
			if ev.Verdict == quality.Drifted.String() {
				sawDrifted = true
			}
			continue
		}
		kinds[ev.Kind]++
		if ev.RequestID == "" || ev.Engine != "beta" {
			t.Fatalf("lifecycle journal line incomplete: %s", line)
		}
		if ev.Kind == relearn.EventSwap && (ev.Sections == 0 || ev.Records == 0) {
			t.Fatalf("swap journal line missing canary counts: %s", line)
		}
	}
	if kinds[relearn.EventJob] < 1 || kinds[relearn.EventSwap] != 1 {
		t.Fatalf("journal lifecycle kinds = %v, want >=1 job and exactly 1 swap", kinds)
	}
	if !sawDrifted {
		t.Fatalf("no journaled request ever carried a DRIFTED verdict before the heal")
	}
}

// TestRelearnSnapshotHoldsTrippingPage: the relearn job a DRIFTED verdict
// schedules must see the page whose observation tripped the verdict.  The
// serving path feeds the reservoir before it notifies the relearner, so
// the job's snapshot cannot race the feed of that page.
func TestRelearnSnapshotHoldsTrippingPage(t *testing.T) {
	eng := synth.NewEngine(21, 2, true)
	reg := NewRegistry(core.DefaultOptions())
	if err := reg.Add("beta", trainWrapper(t, eng)); err != nil {
		t.Fatal(err)
	}
	qcfg := quality.Config{WarmupPages: 12, Window: 8}
	reg.SetQualityConfig(qcfg)

	first := make(chan []*core.SamplePage, 1)
	relearnBuildHook = func(ctx context.Context, samples []*core.SamplePage) (*core.EngineWrapper, error) {
		select {
		case first <- samples:
		default:
		}
		return nil, errors.New("samples captured")
	}
	defer func() { relearnBuildHook = nil }()
	// One holdout page, taken from the front of the snapshot, so the newest
	// pages all train: the tripping page must reach the build hook.
	ctrl := reg.EnableRelearn(relearn.Config{
		MaxPages:     64,
		MinPages:     4,
		TrainPages:   32,
		HoldoutPages: 1,
		Backoff:      time.Minute,
		MaxFailures:  10,
	})
	defer ctrl.Close()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	warm := qcfg.WarmupPages + 4
	de := synth.NewScheduledEngine(eng)
	if err := de.Cutover(warm, eng.Drifted()); err != nil {
		t.Fatal(err)
	}
	var trip *synth.GenPage
	for q := 0; q < warm+200 && trip == nil; q++ {
		gp := de.Page(q)
		if st := postPage(t, srv.Client(), srv.URL, "beta", gp); st != http.StatusOK {
			t.Fatalf("page %d: status %d", q, st)
		}
		if reg.Quality().Verdict("beta") == quality.Drifted {
			trip = gp
		}
	}
	if trip == nil {
		t.Fatal("engine never reached DRIFTED")
	}
	select {
	case samples := <-first:
		for _, s := range samples {
			if s.HTML == trip.HTML {
				return
			}
		}
		t.Fatalf("first relearn attempt trained on %d pages, none of them the page (query %d) that tripped DRIFTED",
			len(samples), trip.QueryIndex)
	case <-time.After(10 * time.Second):
		t.Fatal("no relearn attempt after DRIFTED")
	}
}

// TestRelearnFailureBackoffCircuitAndManualRecovery drives the failure path
// through the HTTP stack: a broken wrapper induction fails every relearn
// attempt, retries back off, the circuit opens and pins the engine
// DEGRADED — all without disturbing serving — and an operator's manual
// POST /relearn/{engine} resets the breaker and heals the engine once
// induction works again.
func TestRelearnFailureBackoffCircuitAndManualRecovery(t *testing.T) {
	eng := synth.NewEngine(21, 2, true)
	reg := NewRegistry(core.DefaultOptions())
	if err := reg.Add("beta", trainWrapper(t, eng)); err != nil {
		t.Fatal(err)
	}

	var hookMu sync.Mutex
	failing := true
	relearnBuildHook = func(ctx context.Context, samples []*core.SamplePage) (*core.EngineWrapper, error) {
		hookMu.Lock()
		f := failing
		hookMu.Unlock()
		if f {
			return nil, errors.New("induction exploded")
		}
		return core.BuildWrapperCtx(ctx, samples, core.DefaultOptions())
	}
	defer func() { relearnBuildHook = nil }()

	rcfg := relearn.Config{
		MinPages:     3,
		TrainPages:   4,
		HoldoutPages: 2,
		Backoff:      5 * time.Millisecond,
		MaxBackoff:   10 * time.Millisecond,
		MaxFailures:  2,
	}
	ctrl := reg.EnableRelearn(rcfg)
	defer ctrl.Close()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	client := srv.Client()

	// Fill the reservoir with redesigned-template pages (they serve fine —
	// zero sections is a 200 — and the default drift warmup means no
	// automatic DRIFTED interferes with the manual triggers below).
	drifted := eng.Drifted()
	for q := 0; q < 6; q++ {
		if st := postPage(t, client, srv.URL, "beta", drifted.Page(q)); st != http.StatusOK {
			t.Fatalf("feed page %d: status %d", q, st)
		}
	}

	trigger := func() (int, relearnTriggerResponse) {
		t.Helper()
		resp, err := client.Post(srv.URL+"/relearn/beta", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var tr relearnTriggerResponse
		if resp.StatusCode == http.StatusAccepted {
			if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
				t.Fatalf("trigger response: %v", err)
			}
		}
		return resp.StatusCode, tr
	}

	st, tr := trigger()
	if st != http.StatusAccepted || tr.State != "RUNNING" {
		t.Fatalf("trigger: status %d state %q, want 202 RUNNING", st, tr.State)
	}

	// The job fails, backs off, fails again: MaxFailures=2 opens the
	// circuit and pins the engine DEGRADED.
	deadline := time.Now().Add(10 * time.Second)
	var rz relearnzWire
	for {
		rz = getRelearnz(t, client, srv.URL)
		if len(rz.Engines) == 1 && rz.Engines[0].State == "DEGRADED" {
			break
		}
		if time.Now().After(deadline) {
			rep, _ := json.Marshal(rz)
			t.Fatalf("engine never reached DEGRADED: %s", rep)
		}
		time.Sleep(2 * time.Millisecond)
	}
	er := rz.Engines[0]
	if er.ConsecutiveFailures != 2 || er.Attempts != 2 || er.Swaps != 0 {
		t.Fatalf("degraded engine = %+v, want 2 failed attempts and no swaps", er)
	}
	if !strings.Contains(er.LastError, "induction exploded") {
		t.Fatalf("last_error = %q, want the injected build error", er.LastError)
	}

	// A degraded relearner must never block serving.
	if st := postPage(t, client, srv.URL, "beta", drifted.Page(6)); st != http.StatusOK {
		t.Fatalf("serving while DEGRADED: status %d", st)
	}
	if g := reg.Status()["beta"].Generation; g != 1 {
		t.Fatalf("generation = %d while degraded, want 1 (no swap)", g)
	}

	// Fix induction; the manual trigger resets the breaker and this time
	// the candidate (trained on the sampled redesigned pages) beats the
	// incumbent (trained on the original template) and swaps in.
	hookMu.Lock()
	failing = false
	hookMu.Unlock()
	st, tr = trigger()
	if st != http.StatusAccepted || tr.State != "RUNNING" {
		t.Fatalf("recovery trigger: status %d state %q, want 202 RUNNING", st, tr.State)
	}
	for {
		rz = getRelearnz(t, client, srv.URL)
		if len(rz.Engines) == 1 && rz.Engines[0].Swaps == 1 && rz.Engines[0].State == "IDLE" {
			break
		}
		if time.Now().After(deadline) {
			rep, _ := json.Marshal(rz)
			t.Fatalf("manual recovery never swapped: %s", rep)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if g := reg.Status()["beta"].Generation; g != 2 {
		t.Fatalf("generation = %d after recovery, want 2", g)
	}

	// The circuit-open episode is on the counters.
	resp, err := client.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Metrics struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	resp.Body.Close()
	c := metrics.Metrics.Counters
	if c["relearn.circuit_open_total"] != 1 || c["relearn.failures_total"] < 2 || c["relearn.swaps_total"] != 1 {
		t.Fatalf("relearn counters = %v, want 1 circuit open, >=2 failures, 1 swap", c)
	}
}

// TestRelearnTriggerEndpointErrors covers the manual-trigger edge cases.
func TestRelearnTriggerEndpointErrors(t *testing.T) {
	eng := synth.NewEngine(55, 3, true)
	data := trainWrapper(t, eng)

	// Relearn disabled: the trigger is a conflict, the report says so.
	plain := NewRegistry(core.DefaultOptions())
	if err := plain.Add("alpha", data); err != nil {
		t.Fatal(err)
	}
	srvPlain := httptest.NewServer(plain.Handler())
	defer srvPlain.Close()
	resp, err := srvPlain.Client().Post(srvPlain.URL+"/relearn/alpha", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("trigger with relearn disabled: status %d, want 409", resp.StatusCode)
	}
	rz := getRelearnz(t, srvPlain.Client(), srvPlain.URL)
	if rz.Enabled {
		t.Fatalf("/relearnz enabled=true on a registry without relearn")
	}

	// Relearn enabled: method, name and existence checks.
	reg := NewRegistry(core.DefaultOptions())
	if err := reg.Add("alpha", data); err != nil {
		t.Fatal(err)
	}
	ctrl := reg.EnableRelearn(relearn.DefaultConfig())
	defer ctrl.Close()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	client := srv.Client()

	cases := []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/relearn/alpha", http.StatusMethodNotAllowed},
		{http.MethodPost, "/relearn/", http.StatusBadRequest},
		{http.MethodPost, "/relearn/a/b", http.StatusBadRequest},
		{http.MethodPost, "/relearn/ghost", http.StatusNotFound},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}

// TestRegistryAddResetsQualityBaselines checks the satellite invariant
// directly: EVERY generation bump — a manual operator Add as much as a
// relearn swap — drops the engine's drift baseline so the new wrapper is
// never judged against the old template's normal.
func TestRegistryAddResetsQualityBaselines(t *testing.T) {
	eng := synth.NewEngine(55, 3, true)
	data := trainWrapper(t, eng)
	reg := NewRegistry(core.DefaultOptions())
	reg.SetQualityConfig(quality.Config{WarmupPages: 4, Window: 4})
	if err := reg.Add("alpha", data); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		reg.Quality().Observe("alpha", quality.Observation{Sections: 2, Records: 10})
	}
	rep := reg.Quality().Report()
	if len(rep.Engines) != 1 || rep.Engines[0].Pages != 10 {
		t.Fatalf("before swap: report = %+v, want alpha with 10 pages", rep.Engines)
	}

	// Operator re-adds the wrapper: generation 2, baseline gone.
	if err := reg.Add("alpha", data); err != nil {
		t.Fatal(err)
	}
	if g := reg.Status()["alpha"].Generation; g != 2 {
		t.Fatalf("generation = %d after re-add, want 2", g)
	}
	if rep := reg.Quality().Report(); len(rep.Engines) != 0 {
		t.Fatalf("after swap: report still tracks %+v, want a fresh (empty) tracker state", rep.Engines)
	}
	if v := reg.Quality().Verdict("alpha"); v != quality.OK {
		t.Fatalf("after swap: verdict = %v, want OK", v)
	}
}

// TestSwapPersistsSnapshot checks the satellite invariant: with an armed
// snapshot path, every wrapper swap rewrites the snapshot atomically (no
// temp litter), a restart restored from it resumes the bumped generation,
// and a persist failure degrades to a warning — it never undoes the swap.
func TestSwapPersistsSnapshot(t *testing.T) {
	eng := synth.NewEngine(55, 3, true)
	data := trainWrapper(t, eng)
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.snap")

	reg := NewRegistry(core.DefaultOptions())
	reg.SetSnapshotPath(path)
	if err := reg.Add("alpha", data); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("initial load persisted a snapshot (err=%v); only swaps should", err)
	}
	if err := reg.Add("alpha", data); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("swap did not persist the snapshot: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("snapshot dir has %d entries, want just the snapshot (temp file leaked?)", len(entries))
	}
	reg2 := NewRegistry(core.DefaultOptions())
	n, err := reg2.LoadSnapshot(bytes.NewReader(b))
	if err != nil || n != 1 {
		t.Fatalf("restoring persisted snapshot: n=%d err=%v", n, err)
	}
	if g := reg2.Status()["alpha"].Generation; g != 2 {
		t.Fatalf("restored generation = %d, want 2", g)
	}

	// Unwritable snapshot path: the swap must still succeed.
	reg3 := NewRegistry(core.DefaultOptions())
	reg3.SetSnapshotPath(filepath.Join(dir, "missing", "fleet.snap"))
	if err := reg3.Add("alpha", data); err != nil {
		t.Fatal(err)
	}
	if err := reg3.Add("alpha", data); err != nil {
		t.Fatalf("swap failed because persistence failed: %v", err)
	}
	if g := reg3.Status()["alpha"].Generation; g != 2 {
		t.Fatalf("generation = %d after best-effort persist, want 2", g)
	}
}

// TestConcurrentSwapsPersistNewestGeneration races wrapper swaps of one
// engine against each other: once every Add has returned, the snapshot
// on disk must hold the generation the registry serves, never an older
// one written last.
func TestConcurrentSwapsPersistNewestGeneration(t *testing.T) {
	data := trainWrapper(t, synth.NewEngine(55, 3, true))
	path := filepath.Join(t.TempDir(), "fleet.snap")
	reg := NewRegistry(core.DefaultOptions())
	// A larger fleet makes each snapshot slower to serialize, widening the
	// window in which a swap could overtake another swap's persist.
	for i := 0; i < 40; i++ {
		if err := reg.Add(fmt.Sprintf("filler%02d", i), data); err != nil {
			t.Fatal(err)
		}
	}
	reg.SetSnapshotPath(path)
	if err := reg.Add("alpha", data); err != nil {
		t.Fatal(err)
	}
	const workers, swaps = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < swaps; i++ {
				if err := reg.Add("alpha", data); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	want := reg.Status()["alpha"].Generation
	if want != 1+workers*swaps {
		t.Fatalf("registry generation = %d, want %d", want, 1+workers*swaps)
	}
	var got uint64
	for _, e := range snap.Engines {
		if e.Name == "alpha" {
			got = e.Generation
		}
	}
	if got != want {
		t.Fatalf("snapshot holds alpha at generation %d, registry serves %d", got, want)
	}
}
