package main

import (
	"encoding/json"
	"fmt"

	"mse/internal/synth"
)

// The benchmark judges extraction output with its own matcher rather than
// internal/eval, so that a change to the evaluation code cannot move the
// benchmark's quality floors.  Every record line synth generates carries
// the record's marker token ("qj" followed by letters a-m and z, see
// synth.Marker), except a false boundary-marker line, which carries none.

// response is an /extract response body as the benchmark reads it.
type response struct {
	Engine   string `json:"engine"`
	Sections []struct {
		Records []struct {
			Lines []string `json:"lines"`
		} `json:"records"`
	} `json:"sections"`
}

// parseResponse decodes an /extract body into its engine name and the
// lines of every record, grouped by section.
func parseResponse(body []byte) (string, [][][]string, error) {
	var r response
	if err := json.Unmarshal(body, &r); err != nil {
		return "", nil, fmt.Errorf("decoding response: %w", err)
	}
	got := make([][][]string, len(r.Sections))
	for i, s := range r.Sections {
		got[i] = make([][]string, len(s.Records))
		for j, rec := range s.Records {
			got[i][j] = rec.Lines
		}
	}
	return r.Engine, got, nil
}

// truthScore counts ground-truth records and sections and how many of them
// were extracted exactly.
type truthScore struct {
	Records      int // ground-truth records
	RecordsExact int // ... extracted with exactly their lines
	Sections     int // ground-truth sections
	Perfect      int // ... extracted as one section holding exactly their records
	// Split counts ground-truth records whose marker shows up in more than
	// one extracted section: the section-record relationship, which the
	// paper's wrappers exist to keep, is broken.
	Split int
}

func (s *truthScore) add(o truthScore) {
	s.Records += o.Records
	s.RecordsExact += o.RecordsExact
	s.Sections += o.Sections
	s.Perfect += o.Perfect
	s.Split += o.Split
}

func (s truthScore) recordRecall() float64 {
	return ratio(float64(s.RecordsExact), float64(s.Records))
}

func (s truthScore) sectionRecall() float64 {
	return ratio(float64(s.Perfect), float64(s.Sections))
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// scorePage judges the sections extracted from one page (got: sections of
// records of lines) against the page's ground truth.  A ground-truth record
// is extracted exactly when some extracted record has exactly its lines; a
// ground-truth section is perfect when some extracted section holds exactly
// its records, in order, and nothing else (the paper's Table 1 "perfect").
func scorePage(gt synth.GroundTruth, got [][][]string) truthScore {
	type ref struct{ sec, rec int }
	byMarker := map[string]ref{}
	for si, s := range gt.Sections {
		for ri, r := range s.Records {
			byMarker[r.Marker] = ref{si, ri}
		}
	}
	// exact[g] is the extracted (section, record) that reproduces ground
	// truth record g, if any; home[marker] is the extracted section that
	// first showed the marker.
	exact := map[ref]ref{}
	home := map[string]int{}
	split := map[string]bool{}
	for ei, sec := range got {
		for ri, lines := range sec {
			var owners []ref
			for _, m := range recordMarkers(lines) {
				g, ok := byMarker[m]
				if !ok {
					continue
				}
				if h, seen := home[m]; seen && h != ei {
					split[m] = true
				}
				home[m] = ei
				owners = append(owners, g)
			}
			if len(owners) != 1 {
				continue // no marker, or several records merged into one
			}
			g := owners[0]
			if equalLines(lines, gt.Sections[g.sec].Records[g.rec].Lines) {
				exact[g] = ref{ei, ri}
			}
		}
	}
	sc := truthScore{Sections: len(gt.Sections), Split: len(split)}
	for si, s := range gt.Sections {
		sc.Records += len(s.Records)
		first, perfect := exact[ref{si, 0}]
		for ri := range s.Records {
			at, ok := exact[ref{si, ri}]
			if ok {
				sc.RecordsExact++
			}
			if !ok || at.sec != first.sec || at.rec != ri || len(got[at.sec]) != len(s.Records) {
				perfect = false
			}
		}
		if perfect {
			sc.Perfect++
		}
	}
	return sc
}

// recordMarkers returns the distinct marker tokens in a record's lines, in
// order of appearance.
func recordMarkers(lines []string) []string {
	var out []string
	for _, l := range lines {
		for i := 0; i+2 < len(l); i++ {
			if l[i] != 'q' || l[i+1] != 'j' {
				continue
			}
			j := i + 2
			for j < len(l) && (l[j] >= 'a' && l[j] <= 'm' || l[j] == 'z') {
				j++
			}
			if m := l[i:j]; !contains(out, m) {
				out = append(out, m)
			}
			i = j - 1
		}
	}
	return out
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

func equalLines(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
