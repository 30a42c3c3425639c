package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// sortedCopy returns xs sorted ascending without touching the caller's
// slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quantile returns the q-quantile of xs (0 ≤ q ≤ 1) by linear
// interpolation between order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so the compare mode reads spreads the same way as any script
// that checks the result files. Fewer than two values return that value
// (or zeros) for all three.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// minBeyond is how many samples the tail percentile must leave above it:
// a tail read from fewer samples is one outlier, not a distribution.
const minBeyond = 10

// tail is the highest percentile of a latency sample that still has at
// least minBeyond samples beyond it.
type tail struct {
	Value   float64 // the sample at that rank
	Pct     float64 // the percentile, in percent
	Beyond  int     // samples ranked above it
	Samples int     // sample count
}

// tailPercentile applies the tail rule to xs: with n samples sorted
// ascending, the value of rank n−minBeyond (1-based) has exactly
// minBeyond samples ranked beyond it, and no higher rank has as many, so
// its percentile 100·(n−minBeyond)/n is the highest one the rule allows.
// A sample too small for the rule (n ≤ minBeyond) reports its maximum
// with Beyond = 0, which callers print as such.
func tailPercentile(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := sortedCopy(xs)
	if n <= minBeyond {
		return tail{Value: s[n-1], Pct: 100, Samples: n}
	}
	r := n - minBeyond
	return tail{Value: s[r-1], Pct: 100 * float64(r) / float64(n), Beyond: n - r, Samples: n}
}

// ms and us convert a duration to fractional milliseconds and
// microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// heapSampler tracks the peak live-heap size while it runs. It reads the
// runtime/metrics heap-objects gauge, which does not stop the world, so
// sampling every millisecond costs the measured work almost nothing.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func readHeap() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// startHeapSampler starts sampling; Stop ends it and returns the peak.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: readHeap()}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				if v := readHeap(); v > h.peak {
					h.peak = v
				}
			}
		}
	}()
	return h
}

// Stop ends sampling, waits for the sampler goroutine, and returns the
// peak in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	h.done.Wait()
	if v := readHeap(); v > h.peak {
		h.peak = v
	}
	return float64(h.peak) / (1 << 20)
}

// probeGCPercent is the collector setting of liveHeapPeak.
const probeGCPercent = 10

// liveHeapPeak runs each item alone from a collected heap and returns the
// highest peak heap in MiB. Under the default collector setting the
// library workloads collect a few times a run, and the kernels' pooled
// lattice buffers survive until a second cycle, so a heap sample taken
// while aligning is mostly garbage and its peak depends on where the
// cycles fall. Two collections before each item empty the pools, and
// collecting at probeGCPercent growth while it runs makes the peak track
// the live memory the item needs.
func liveHeapPeak(items []int, run func(i int)) float64 {
	old := debug.SetGCPercent(probeGCPercent)
	defer debug.SetGCPercent(old)
	var peak float64
	for _, i := range items {
		runtime.GC()
		runtime.GC()
		h := startHeapSampler()
		run(i)
		peak = max(peak, h.Stop())
	}
	return peak
}

// largest returns the indices of the n items of largest weight.
func largest(weights []float64, n int) []int {
	idx := make([]int, len(weights))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return weights[idx[a]] > weights[idx[b]] })
	return idx[:min(n, len(idx))]
}
