package main

import (
	"testing"
)

func TestPercentile(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(1000 - i) // reversed: percentile must sort
	}
	if v, err := percentile(append([]float64(nil), s...), 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if v, err := percentile(append([]float64(nil), s...), 0.5); err != nil || v != 500 {
		t.Errorf("p50 of 1..1000 = %v, %v; want 500", v, err)
	}
	if _, err := percentile(s[:999], 0.99); err == nil {
		t.Error("p99 of 999 samples was not refused")
	}
	if v, err := percentile([]float64{3, 1, 2}, 0.5); err != nil || v != 2 {
		t.Errorf("median of 3 samples = %v, %v; want 2", v, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples was not refused")
	}
}

func TestWindowed(t *testing.T) {
	// Three windows of 1,000; the middle one is disturbed and must not
	// move the reported p99 below the third quartile.
	var s []float64
	for w := 0; w < 3; w++ {
		for i := 0; i < 1000; i++ {
			v := 1.0
			if w == 1 {
				v = 50
			}
			if i >= 985 {
				v = 2
			}
			s = append(s, v)
		}
	}
	s = append(s, 7, 7) // the remainder joins the last window
	if v, err := windowed(s, 1000, p99, 0.5); err != nil || v != 2 {
		t.Errorf("windowed p99 = %v, %v; want 2", v, err)
	}
	if v, err := windowed(s, 1000, p99, bestHigh); err != nil || v != 50 {
		t.Errorf("windowed p99 at the third quartile = %v, %v; want the disturbed 50", v, err)
	}
	if _, err := windowed(s[:999], 1000, p99, 0.5); err == nil {
		t.Error("windowed accepted fewer samples than one window")
	}
}
