package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sendFunc performs operation i on behalf of worker w (each worker owns
// one connection) and reports whether the operation and its output check
// succeeded.
type sendFunc func(w, i int) error

// openResult holds the per-operation timings of an open-loop phase.
type openResult struct {
	// latency runs from the operation's due time to its completion, so
	// time spent queued behind a slow earlier operation counts.
	latency []time.Duration
	// rtt runs from the actual send to completion.
	rtt []time.Duration
	// lag is how late the generator itself sent: the send time minus the
	// later of the due time and the moment a worker was free to send.
	lag []time.Duration
}

// openLoop sends n operations at fixed intervals from the phase start,
// using at most workers concurrent senders.  Operations are taken in due
// order; when every worker is busy, the next operation waits and its wait
// counts in its latency.  The first failed operation ends the phase.
func openLoop(ctx context.Context, n int, interval time.Duration, workers int, send sendFunc) (openResult, error) {
	res := openResult{
		latency: make([]time.Duration, n),
		rtt:     make([]time.Duration, n),
		lag:     make([]time.Duration, n),
	}
	ctx, stop := context.WithCancel(ctx)
	defer stop()
	var next atomic.Int64
	var firstErr error
	var errOnce sync.Once
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			free := start
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if err := sleepUntil(ctx, due); err != nil {
					return
				}
				sent := time.Now()
				ready := due
				if free.After(ready) {
					ready = free
				}
				res.lag[i] = sent.Sub(ready)
				err := send(w, i)
				done := time.Now()
				res.latency[i] = done.Sub(due)
				res.rtt[i] = done.Sub(sent)
				free = done
				if err != nil {
					errOnce.Do(func() { firstErr = fmt.Errorf("operation %d: %w", i, err) })
					stop()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return res, firstErr
	}
	return res, ctx.Err()
}

// closedLoop runs workers senders back to back until d has passed and
// returns when each operation completed, as offsets from the phase start.
func closedLoop(ctx context.Context, d time.Duration, workers int, send sendFunc) ([]time.Duration, error) {
	ctx, stop := context.WithCancel(ctx)
	defer stop()
	var next atomic.Int64
	var firstErr error
	var errOnce sync.Once
	done := make([][]time.Duration, workers)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if err := send(w, i); err != nil {
					errOnce.Do(func() { firstErr = fmt.Errorf("operation %d: %w", i, err) })
					stop()
					return
				}
				done[w] = append(done[w], time.Since(start))
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	var all []time.Duration
	for _, d := range done {
		all = append(all, d...)
	}
	return all, ctx.Err()
}

// perSecond returns, for each whole second of a closed-loop phase of
// length d, how many operations completed in it.
func perSecond(done []time.Duration, d time.Duration) ([]float64, error) {
	per := make([]float64, int(d/time.Second))
	if len(per) == 0 {
		return nil, fmt.Errorf("a %v phase has no whole second", d)
	}
	for _, t := range done {
		if s := int(t / time.Second); s < len(per) {
			per[s]++
		}
	}
	return per, nil
}

// sleepUntil waits for t or for ctx to end.  It sleeps in the kernel
// rather than on a runtime timer: when the process is mostly idle, as an
// open loop well below capacity leaves it, the runtime wakes timers only
// at millisecond granularity, and the generator would send up to a
// millisecond late.  Sleeps are cut into slices of at most sleepSlice so
// that an interrupted run stops promptly.
func sleepUntil(ctx context.Context, t time.Time) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		d := time.Until(t)
		if d <= 0 {
			return nil
		}
		if d > sleepSlice {
			d = sleepSlice
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early wake-up (EINTR) just loops
	}
}

// sleepSlice bounds one kernel sleep of sleepUntil.
const sleepSlice = 50 * time.Millisecond
