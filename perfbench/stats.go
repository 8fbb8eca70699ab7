package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the numpy/R type-7 rule). It returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// liveHeap tracks the Go heap's high-water mark as the largest live heap
// any garbage collection of the run marked, sampled at operation boundaries
// (after every MD step, after every status poll). Unlike the heap's total
// size it does not depend on where in a GC cycle a sample lands.
type liveHeap struct {
	mu     sync.Mutex
	sample []metrics.Sample
	max    uint64
}

func newLiveHeap() *liveHeap {
	return &liveHeap{sample: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (h *liveHeap) observe() {
	h.mu.Lock()
	defer h.mu.Unlock()
	metrics.Read(h.sample)
	if v := h.sample[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > h.max {
		h.max = v.Uint64()
	}
}

func (h *liveHeap) peakMiB() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.max) / (1 << 20)
}

// gcWindow brackets a measured window with runtime.MemStats reads.
type gcWindow struct{ before, after runtime.MemStats }

func startGCWindow() *gcWindow {
	w := &gcWindow{}
	runtime.ReadMemStats(&w.before)
	return w
}

func (w *gcWindow) stop() { runtime.ReadMemStats(&w.after) }

func (w *gcWindow) allocMiB() float64 {
	return float64(w.after.TotalAlloc-w.before.TotalAlloc) / (1 << 20)
}

func (w *gcWindow) cycles() float64 { return float64(w.after.NumGC - w.before.NumGC) }

func (w *gcWindow) pauseMs() float64 {
	return float64(w.after.PauseTotalNs-w.before.PauseTotalNs) / 1e6
}
