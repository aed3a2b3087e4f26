package scenario

import (
	"fmt"
	"sort"
)

// TimePoint is one window of an engine's score time series.
type TimePoint struct {
	Phase  string `json:"phase"`
	Engine string `json:"engine"`
	// FromPage and ToPage are the engine's virtual-time page span
	// [FromPage, ToPage) covered by this window.
	FromPage int `json:"from_page"`
	ToPage   int `json:"to_page"`
	EngineScore
}

// PhaseReport summarizes one executed phase.
type PhaseReport struct {
	Name string `json:"name"`
	// Kind is "pages", "until_drifted" or "await_swap".
	Kind string `json:"kind"`
	// Requests is the number of HTTP requests the phase issued (for
	// await_swap, only polls — which are excluded from this count).
	Requests int `json:"requests"`
	// PagesServed counts scored pages across engines.
	PagesServed int `json:"pages_served"`
	// Engines holds per-engine scores over the phase, sorted by name.
	Engines []EngineScore `json:"engines,omitempty"`
	// Outcome notes how the phase ended ("completed", "drift detected",
	// "swap observed", ...).
	Outcome string `json:"outcome,omitempty"`
}

// Timing is the wall-clock half of the report.  It is excluded from any
// determinism comparison: two runs of the same scenario agree on
// everything in Report except this field.
type Timing struct {
	StartedAt  string  `json:"started_at,omitempty"`
	DurationS  float64 `json:"duration_s"`
	RequestsPS float64 `json:"requests_per_s"`
}

// Report is the final output of a scenario run.
type Report struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	// Digest is the sha256 over the run's canonical event lines — the
	// determinism fingerprint: same scenario, same seed, same server
	// config → same digest.
	Digest        string        `json:"digest"`
	TotalRequests int           `json:"total_requests"`
	TotalPages    int           `json:"total_pages"`
	Non2xx        int           `json:"non_2xx"`
	Phases        []PhaseReport `json:"phases"`
	// Series is the per-engine windowed score time series in emission
	// order — the recall drop at a cutover and the recovery after a heal
	// are read directly off it.
	Series []TimePoint `json:"series"`
	// Final holds per-engine scores over the last traffic-serving phase,
	// the ones thresholds judge.
	Final []EngineScore `json:"final"`
	// Breaches lists every threshold violation; empty means the run
	// passed.
	Breaches []string `json:"breaches,omitempty"`
	Timing   Timing   `json:"timing"`
}

// Passed reports whether no threshold was breached.
func (r *Report) Passed() bool { return len(r.Breaches) == 0 }

// applyThresholds fills Breaches from the final-phase scores.
func (r *Report) applyThresholds(t Thresholds) {
	if t.MaxNon2xx >= 0 && r.Non2xx > t.MaxNon2xx {
		r.Breaches = append(r.Breaches,
			fmt.Sprintf("non-2xx responses %d exceed limit %d", r.Non2xx, t.MaxNon2xx))
	}
	for _, es := range r.Final {
		if t.MinFinalRecordRecall > 0 && es.RecordRecall < t.MinFinalRecordRecall {
			r.Breaches = append(r.Breaches,
				fmt.Sprintf("engine %s final record recall %.4f below floor %.4f",
					es.Engine, es.RecordRecall, t.MinFinalRecordRecall))
		}
		if t.MaxFinalEmptyRate >= 0 && es.EmptyRate > t.MaxFinalEmptyRate {
			r.Breaches = append(r.Breaches,
				fmt.Sprintf("engine %s final empty rate %.4f above ceiling %.4f",
					es.Engine, es.EmptyRate, t.MaxFinalEmptyRate))
		}
	}
}

// sortedScores returns the map's scores sorted by engine name (maps are
// iteration-order hostile; reports must be byte-stable).
func sortedScores(m map[string]*EngineScore) []EngineScore {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]EngineScore, 0, len(names))
	for _, n := range names {
		s := m[n]
		s.Engine = n
		out = append(out, *s)
	}
	return out
}
