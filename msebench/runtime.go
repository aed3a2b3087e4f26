package main

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Runtime counters read through runtime/metrics.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mGCPauseCPU = "/cpu/classes/gc/pause:cpu-seconds"
	mHeapInUse  = "/memory/classes/heap/objects:bytes"
)

// rtSnapshot is a reading of the runtime counters the benchmark reports
// as deltas.
type rtSnapshot struct {
	allocBytes uint64
	gcCycles   uint64
	pauseCPU   float64 // seconds
}

func readRuntime() rtSnapshot {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mGCCycles}, {Name: mGCPauseCPU}}
	metrics.Read(s)
	return rtSnapshot{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		pauseCPU:   s[2].Value.Float64(),
	}
}

// allocBytes reads the cumulative heap allocation counter alone, cheaply
// enough to bracket each wrapper build.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: mAllocBytes}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// processCPU returns the CPU time the process has used, user and system.
// Time the host gives to other tenants does not count, which makes CPU time
// per item a steadier cost measure than wall time on a shared machine.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler records the peak Go heap in use while it runs.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

// startHeapSampler samples the heap every millisecond until stopped.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.sample()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: mHeapInUse}}
	metrics.Read(s)
	if v := s[0].Value.Uint64(); v > h.peak.Load() {
		h.peak.Store(v)
	}
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	h.wg.Wait()
	h.sample()
	return float64(h.peak.Load()) / (1 << 20)
}
