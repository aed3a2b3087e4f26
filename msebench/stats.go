package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// p99 from fewer than 1,000 samples would rest on fewer than ten values
// and say nothing about the tail.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of samples,
// which it sorts in place.  A percentile above the median is refused when
// fewer than minBeyond samples lie beyond it.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", 100*p)
	}
	if p > 0.5 && float64(n)*(1-p) < minBeyond-1e-9 {
		return 0, fmt.Errorf("percentile p%g needs %d samples, have %d",
			100*p, int(math.Ceil(minBeyond/(1-p)-1e-9)), n)
	}
	return rank(samples, p), nil
}

// rank returns the nearest-rank q-quantile of a non-empty set of values,
// which it sorts in place.
func rank(values []float64, q float64) float64 {
	sort.Float64s(values)
	i := int(math.Ceil(q*float64(len(values)))) - 1
	if i < 0 {
		i = 0
	}
	return values[i]
}

// median is percentile 0.5, which any non-empty sample supports.
func median(samples []float64) float64 {
	v, err := percentile(samples, 0.5)
	if err != nil {
		return 0
	}
	return v
}

// windowed splits samples, in the order they were taken, into consecutive
// windows of size (the last window also takes any remainder), applies stat
// to each window and returns the q-quantile of the windows' values.
func windowed(samples []float64, size int, stat func([]float64) (float64, error), q float64) (float64, error) {
	n := len(samples) / size
	if n == 0 {
		return 0, fmt.Errorf("%d samples make no window of %d", len(samples), size)
	}
	per := make([]float64, n)
	for w := range per {
		end := (w + 1) * size
		if w == n-1 {
			end = len(samples)
		}
		win := append([]float64(nil), samples[w*size:end]...)
		v, err := stat(win)
		if err != nil {
			return 0, fmt.Errorf("window %d: %w", w, err)
		}
		per[w] = v
	}
	return rank(per, q), nil
}

// Interference from outside the process only ever makes a window slower;
// on a machine that shares its CPUs with other tenants it comes in bursts
// of seconds.  A metric
// where lower is better therefore reports the first quartile of its
// windows (bestLow), one where higher is better the third (bestHigh): the
// value holds while interference spoils up to three quarters of the
// windows, and still moves when the program slows every window.
const (
	bestLow  = 0.25
	bestHigh = 0.75
)

// p50 and p99 are percentile functions for windowed.
func p50(s []float64) (float64, error) { return percentile(s, 0.5) }
func p99(s []float64) (float64, error) { return percentile(s, 0.99) }

// durations converts durations to float64 values in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
