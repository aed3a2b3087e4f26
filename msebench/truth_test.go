package main

import (
	"testing"

	"mse/internal/synth"
)

// gtRec builds a ground-truth record whose lines all carry its marker.
func gtRec(sec, rec int, lines ...string) synth.GTRecord {
	m := synth.Marker(7, 5, sec, rec)
	r := synth.GTRecord{Marker: m}
	for _, l := range lines {
		r.Lines = append(r.Lines, l+" "+m)
	}
	return r
}

// twoSections is a page with a two-record section and a one-record one.
func twoSections() synth.GroundTruth {
	return synth.GroundTruth{Sections: []synth.GTSection{
		{Records: []synth.GTRecord{gtRec(0, 0, "alpha", "snippet a"), gtRec(0, 1, "beta", "snippet b")}},
		{Records: []synth.GTRecord{gtRec(1, 0, "gamma")}},
	}}
}

func TestScorePage(t *testing.T) {
	gt := twoSections()
	a, b := gt.Sections[0].Records[0].Lines, gt.Sections[0].Records[1].Lines
	c := gt.Sections[1].Records[0].Lines
	cases := []struct {
		name string
		gt   synth.GroundTruth
		got  [][][]string
		want truthScore
	}{
		{
			name: "perfect sections",
			gt:   gt,
			got:  [][][]string{{a, b}, {c}},
			want: truthScore{Records: 3, RecordsExact: 3, Sections: 2, Perfect: 2},
		},
		{
			name: "record split in two",
			gt:   gt,
			got:  [][][]string{{a[:1], a[1:], b}, {c}},
			want: truthScore{Records: 3, RecordsExact: 2, Sections: 2, Perfect: 1},
		},
		{
			name: "two records merged",
			gt:   gt,
			got:  [][][]string{{append(append([]string{}, a...), b...)}, {c}},
			want: truthScore{Records: 3, RecordsExact: 1, Sections: 2, Perfect: 1},
		},
		{
			name: "extra record in a section",
			gt:   gt,
			got:  [][][]string{{a, b, {"noise"}}, {c}},
			want: truthScore{Records: 3, RecordsExact: 3, Sections: 2, Perfect: 1},
		},
		{
			name: "empty page",
			gt:   synth.GroundTruth{},
			got:  nil,
			want: truthScore{},
		},
		{
			name: "nothing extracted",
			gt:   gt,
			got:  nil,
			want: truthScore{Records: 3, Sections: 2},
		},
		{
			name: "record in two sections",
			gt:   gt,
			got:  [][][]string{{a, b[:1]}, {b[1:]}, {c}},
			want: truthScore{Records: 3, RecordsExact: 2, Sections: 2, Perfect: 1, Split: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := scorePage(tc.gt, tc.got); got != tc.want {
				t.Errorf("scorePage = %+v, want %+v", got, tc.want)
			}
		})
	}
}

func TestParseResponse(t *testing.T) {
	body := []byte(`{"engine":"e007","sections":[{"heading":"News","records":[{"lines":["x","y"],"units":[{"type":"title","text":"x"}]}]},{"records":[]}]}`)
	engine, got, err := parseResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if engine != "e007" || len(got) != 2 || len(got[0]) != 1 || !equalLines(got[0][0], []string{"x", "y"}) || len(got[1]) != 0 {
		t.Errorf("parseResponse = %q %q", engine, got)
	}
	if _, _, err := parseResponse([]byte(`{"engine":`)); err == nil {
		t.Error("parseResponse accepted a truncated body")
	}
}

func TestRecordMarkers(t *testing.T) {
	m1, m2 := synth.Marker(1, 2, 3, 4), synth.Marker(1, 2, 3, 5)
	got := recordMarkers([]string{"title " + m1, "www.site/doc/" + m1 + ".html", "merged " + m2})
	if len(got) != 2 || got[0] != m1 || got[1] != m2 {
		t.Errorf("recordMarkers = %q, want [%s %s]", got, m1, m2)
	}
}
