package quality

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// stableObs draws an in-distribution observation: 2-3 sections, records
// varying around 12, latency around 5ms.
func stableObs(rng *rand.Rand) Observation {
	return Observation{
		Sections: 2 + rng.Intn(2),
		Records:  9 + rng.Intn(7),
		Latency:  time.Duration(4+rng.Intn(3)) * time.Millisecond,
	}
}

// testConfig is a small, fast configuration used across the tests.
func testConfig() Config {
	c := DefaultConfig()
	c.WarmupPages = 20
	c.Window = 12
	return c
}

// TestVerdictTransitionsInOrder drives a warm engine through a hard drift
// (all pages empty) and checks the verdict walks OK → SUSPECT → DRIFTED in
// order, within a bounded page count.
func TestVerdictTransitionsInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := NewTracker(testConfig())
	for i := 0; i < 60; i++ {
		a := tr.Observe("e", stableObs(rng))
		if a.Verdict != OK {
			t.Fatalf("page %d: verdict %v on a stable stream", i, a.Verdict)
		}
	}
	var seen []Verdict
	for i := 0; i < 200; i++ {
		a := tr.Observe("e", Observation{Sections: 0, Records: 0, Latency: time.Millisecond})
		if a.Changed {
			seen = append(seen, a.Verdict)
		}
		if a.Verdict == Drifted {
			break
		}
	}
	if len(seen) != 2 || seen[0] != Suspect || seen[1] != Drifted {
		t.Fatalf("transitions = %v, want [SUSPECT DRIFTED]", seen)
	}
	if tr.Verdict("e") != Drifted {
		t.Fatalf("final verdict = %v, want DRIFTED", tr.Verdict("e"))
	}
}

// TestPartialDriftDetected checks a subtler drift — the template change
// drops most records but the extraction is not empty — still escalates.
func TestPartialDriftDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := NewTracker(testConfig())
	for i := 0; i < 60; i++ {
		tr.Observe("e", stableObs(rng))
	}
	for i := 0; i < 200; i++ {
		// One section, one record: far below the ~12-record baseline.
		a := tr.Observe("e", Observation{Sections: 1, Records: 1, Latency: 5 * time.Millisecond})
		if a.Verdict == Drifted {
			return
		}
	}
	t.Fatalf("partial drift not detected within 200 pages")
}

// TestStableEngineStaysOK runs a long stable stream and checks the verdict
// never leaves OK, even with occasional single-page outliers mixed in.
func TestStableEngineStaysOK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := NewTracker(testConfig())
	for i := 0; i < 2000; i++ {
		o := stableObs(rng)
		if i%97 == 0 {
			// A lone weird page: empty extraction.
			o = Observation{}
		}
		a := tr.Observe("e", o)
		if a.Verdict != OK {
			t.Fatalf("page %d: verdict %v (rate %.3f) on stable traffic", i, a.Verdict, a.AnomalyRate)
		}
	}
}

// TestHysteresisNoFlapping drives the smoothed anomaly rate up and down
// *inside* the hysteresis gap — above SuspectExit, below DriftEnter — for
// many cycles and checks the verdict, once SUSPECT, never changes again.
// This is the defining property of the enter/exit bands: a signal
// dithering across the SUSPECT boundary region cannot toggle the verdict.
func TestHysteresisNoFlapping(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := testConfig()
	tr := NewTracker(cfg)
	for i := 0; i < 60; i++ {
		tr.Observe("e", stableObs(rng))
	}
	anomalous := Observation{} // empty page: always anomalous here
	// Escalate into SUSPECT.
	a := tr.Observe("e", anomalous)
	for a.AnomalyRate < cfg.SuspectEnter {
		a = tr.Observe("e", anomalous)
	}
	if a.Verdict != Suspect {
		t.Fatalf("verdict = %v after crossing SuspectEnter, want SUSPECT", a.Verdict)
	}
	// Dither: decay the rate to just above SuspectExit, push it back to
	// just under DriftEnter, 50 times.  The verdict must hold at SUSPECT
	// through every crossing of the (former) OK/SUSPECT boundary.
	for cycle := 0; cycle < 50; cycle++ {
		for a.AnomalyRate > cfg.SuspectExit+0.03 {
			a = tr.Observe("e", stableObs(rng))
			if a.Changed {
				t.Fatalf("cycle %d: verdict flapped to %v at rate %.3f (decay)", cycle, a.Verdict, a.AnomalyRate)
			}
		}
		for a.AnomalyRate < cfg.DriftEnter-0.10 {
			a = tr.Observe("e", anomalous)
			if a.Changed {
				t.Fatalf("cycle %d: verdict flapped to %v at rate %.3f (rise)", cycle, a.Verdict, a.AnomalyRate)
			}
		}
	}
	if tr.Verdict("e") != Suspect {
		t.Fatalf("final verdict = %v, want SUSPECT", tr.Verdict("e"))
	}
}

// TestRecoveryPath checks the de-escalation ladder: a drifted engine whose
// traffic turns healthy again steps DRIFTED → SUSPECT → OK.
func TestRecoveryPath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := NewTracker(testConfig())
	for i := 0; i < 60; i++ {
		tr.Observe("e", stableObs(rng))
	}
	for i := 0; i < 100 && tr.Verdict("e") != Drifted; i++ {
		tr.Observe("e", Observation{})
	}
	if tr.Verdict("e") != Drifted {
		t.Fatalf("setup: engine did not reach DRIFTED")
	}
	var seen []Verdict
	for i := 0; i < 300; i++ {
		a := tr.Observe("e", stableObs(rng))
		if a.Changed {
			seen = append(seen, a.Verdict)
		}
	}
	if len(seen) != 2 || seen[0] != Suspect || seen[1] != OK {
		t.Fatalf("recovery transitions = %v, want [SUSPECT OK]", seen)
	}
}

// TestOftenEmptyEngineTolerated: an engine whose baseline empty rate is
// high (legitimately sparse results) must not drift just for being empty.
func TestOftenEmptyEngineTolerated(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tr := NewTracker(testConfig())
	emptyish := func() Observation {
		if rng.Float64() < 0.5 {
			return Observation{}
		}
		return Observation{Sections: 1, Records: 2 + rng.Intn(3), Latency: time.Millisecond}
	}
	for i := 0; i < 1000; i++ {
		if a := tr.Observe("e", emptyish()); a.Verdict != OK {
			t.Fatalf("page %d: verdict %v for a legitimately sparse engine", i, a.Verdict)
		}
	}
}

// TestErrorsAreAnomalous: sustained pipeline errors escalate even though
// they never contribute an empty/record signal.
func TestErrorsAreAnomalous(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := NewTracker(testConfig())
	for i := 0; i < 60; i++ {
		tr.Observe("e", stableObs(rng))
	}
	for i := 0; i < 200; i++ {
		if tr.Observe("e", Observation{Err: true}).Verdict == Drifted {
			return
		}
	}
	t.Fatalf("sustained errors did not reach DRIFTED")
}

// TestReportShape checks the report is sorted, covers every engine, and
// carries warmed baselines.
func TestReportShape(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tr := NewTracker(testConfig())
	for _, e := range []string{"zeta", "alpha", "mid"} {
		for i := 0; i < 40; i++ {
			tr.Observe(e, stableObs(rng))
		}
	}
	rep := tr.Report()
	if got := len(rep.Engines); got != 3 {
		t.Fatalf("report engines = %d, want 3", got)
	}
	for i, want := range []string{"alpha", "mid", "zeta"} {
		er := rep.Engines[i]
		if er.Engine != want {
			t.Fatalf("engines not sorted: got %q at %d, want %q", er.Engine, i, want)
		}
		if !er.Warmed || er.Pages != 40 {
			t.Fatalf("%s: warmed=%v pages=%d, want warmed after 40 pages", er.Engine, er.Warmed, er.Pages)
		}
		if er.Baseline.Records.Mean <= 0 || er.Baseline.Sections.Mean <= 0 {
			t.Fatalf("%s: zero baseline means: %+v", er.Engine, er.Baseline)
		}
		if er.Verdict != OK {
			t.Fatalf("%s: verdict %v on stable traffic", er.Engine, er.Verdict)
		}
	}
}

// TestNilTracker pins the nil-safety contract used by the serving path.
func TestNilTracker(t *testing.T) {
	var tr *Tracker
	if a := tr.Observe("e", Observation{}); a.Verdict != OK || a.Changed {
		t.Fatalf("nil tracker assessment = %+v", a)
	}
	if tr.Verdict("e") != OK {
		t.Fatalf("nil tracker verdict != OK")
	}
	if rep := tr.Report(); len(rep.Engines) != 0 {
		t.Fatalf("nil tracker report has engines")
	}
}

// TestTrackerConcurrent hammers one tracker from many goroutines over
// several engines; run under -race this proves the locking.
func TestTrackerConcurrent(t *testing.T) {
	tr := NewTracker(testConfig())
	engines := []string{"a", "b", "c", "d"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				tr.Observe(engines[rng.Intn(len(engines))], stableObs(rng))
			}
		}(int64(g))
	}
	wg.Wait()
	rep := tr.Report()
	total := int64(0)
	for _, er := range rep.Engines {
		total += er.Pages
		if er.Verdict != OK {
			t.Fatalf("%s: verdict %v under concurrent stable traffic", er.Engine, er.Verdict)
		}
	}
	if total != 8*500 {
		t.Fatalf("total pages = %d, want %d", total, 8*500)
	}
}

// TestVerdictJSON pins the string wire form.
func TestVerdictJSON(t *testing.T) {
	for v, want := range map[Verdict]string{OK: `"OK"`, Suspect: `"SUSPECT"`, Drifted: `"DRIFTED"`} {
		b, err := v.MarshalJSON()
		if err != nil || string(b) != want {
			t.Fatalf("MarshalJSON(%v) = %s, %v; want %s", v, b, err, want)
		}
	}
}

// driveToDrifted warms an engine on stable pages then feeds empties until
// the verdict reads DRIFTED.
func driveToDrifted(t *testing.T, tr *Tracker, engine string) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		tr.Observe(engine, stableObs(rng))
	}
	for i := 0; i < 200; i++ {
		if a := tr.Observe(engine, Observation{}); a.Verdict == Drifted {
			return
		}
	}
	t.Fatalf("%s never reached DRIFTED", engine)
}

// TestResetRewarmsBaseline: Reset drops the engine's state entirely — the
// verdict reads OK, the report no longer lists it, and the next pages are a
// fresh warm-up prefix (pinned OK, never anomalous), exactly what a wrapper
// swap needs so the new wrapper is not judged against the old template's
// normal.
func TestResetRewarmsBaseline(t *testing.T) {
	tr := NewTracker(testConfig())
	driveToDrifted(t, tr, "e")
	tr.Reset("e")
	if v := tr.Verdict("e"); v != OK {
		t.Fatalf("verdict after Reset = %v, want OK", v)
	}
	if rep := tr.Report(); len(rep.Engines) != 0 {
		t.Fatalf("report after Reset still lists %d engines", len(rep.Engines))
	}
	// Re-warm: pages that would have been screaming anomalies against the
	// old baseline are ordinary warm-up observations for the new one.
	for i := 0; i < tr.Config().WarmupPages; i++ {
		a := tr.Observe("e", Observation{Sections: 0, Records: 0})
		if a.Verdict != OK || a.Anomalous {
			t.Fatalf("re-warm page %d: verdict %v anomalous %v, want a fresh warm-up", i, a.Verdict, a.Anomalous)
		}
	}
	if rep := tr.Report(); len(rep.Engines) != 1 || rep.Engines[0].Pages != int64(tr.Config().WarmupPages) {
		t.Fatalf("report after re-warm = %+v, want 1 engine with a fresh page count", rep.Engines)
	}
	// Resetting an engine never observed (or a nil tracker) is a no-op.
	tr.Reset("ghost")
	var nilTr *Tracker
	nilTr.Reset("e")
}

// TestAssessmentChangedTransitions: Changed is set exactly on the
// observation that moves the verdict, with Verdict naming where it moved —
// one OK→SUSPECT and one SUSPECT→DRIFTED on the way to drift, and none on a
// stable stream.
func TestAssessmentChangedTransitions(t *testing.T) {
	tr := NewTracker(testConfig())
	type tran struct{ from, to Verdict }
	var trans []tran
	prev := OK
	observe := func(o Observation) {
		a := tr.Observe("e", o)
		if a.Changed != (a.Verdict != prev) {
			t.Fatalf("Changed = %v moving %v -> %v", a.Changed, prev, a.Verdict)
		}
		if a.Changed {
			trans = append(trans, tran{prev, a.Verdict})
		}
		prev = a.Verdict
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		observe(stableObs(rng))
	}
	if len(trans) != 0 {
		t.Fatalf("%d verdict changes on a stable stream: %v", len(trans), trans)
	}
	for i := 0; i < 200 && prev != Drifted; i++ {
		observe(Observation{})
	}
	want := []tran{{OK, Suspect}, {Suspect, Drifted}}
	if len(trans) != len(want) || trans[0] != want[0] || trans[1] != want[1] {
		t.Fatalf("transitions = %v, want %v", trans, want)
	}
}
