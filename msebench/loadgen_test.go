package main

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// One worker, one request every 2 ms; request 0 stalls for 30 ms, so
	// requests 1-10 are sent late, behind it.  Their latency must run from
	// when they were due, not from when they were finally sent.
	const interval = 2 * time.Millisecond
	const stall = 30 * time.Millisecond
	res, err := openLoop(context.Background(), 20, interval, 1, func(w, i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		queued := stall - time.Duration(i)*interval
		if res.latency[i] < queued {
			t.Errorf("request %d: latency %v, but it waited %v behind request 0", i, res.latency[i], queued)
		}
		if res.rtt[i] > 5*time.Millisecond {
			t.Errorf("request %d: round trip %v for an instant operation", i, res.rtt[i])
		}
		// The worker was busy, not the generator late: the wait is not lag.
		if res.lag[i] > 5*time.Millisecond {
			t.Errorf("request %d: send lag %v counts the stall", i, res.lag[i])
		}
	}
	if res.latency[19] >= res.latency[1] {
		t.Errorf("request 19: latency %v, not below request 1's %v: the backlog did not drain", res.latency[19], res.latency[1])
	}
}

func TestOpenLoopStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	n := 0
	_, err := openLoop(context.Background(), 100, time.Millisecond, 1, func(w, i int) error {
		n++
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || n != 4 {
		t.Errorf("openLoop = %v after %d operations, want boom after 4", err, n)
	}
}

func TestPerSecond(t *testing.T) {
	var done []time.Duration
	for s := 0; s < 3; s++ {
		for i := 0; i < 10+s; i++ {
			done = append(done, time.Duration(s)*time.Second+time.Duration(i)*time.Millisecond)
		}
	}
	done = append(done, 3*time.Second+time.Millisecond) // past the phase: not counted
	per, err := perSecond(done, 3*time.Second)
	if err != nil || len(per) != 3 || per[0] != 10 || per[1] != 11 || per[2] != 12 {
		t.Errorf("perSecond = %v, %v; want [10 11 12]", per, err)
	}
	if v := rank(per, bestHigh); v != 12 {
		t.Errorf("third quartile of %v = %v, want 12", per, v)
	}
}
