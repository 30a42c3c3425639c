package main

import (
	"runtime"
	"time"

	repro "repro"
	"repro/internal/wavefront"
)

// cells is the lattice size (n+1)(m+1)(p+1) of a triple.
func cells(tr repro.Triple) float64 {
	return float64(tr.A.Len()+1) * float64(tr.B.Len()+1) * float64(tr.C.Len()+1)
}

// kernelTally accumulates which kernels ran and at what rate, for the
// plan.kernel_share.* and core.mcells_per_s.* metrics.
type kernelTally struct {
	ops     map[string]int
	total   int
	cells   map[string]float64
	elapsed map[string]time.Duration
}

func newKernelTally() *kernelTally {
	return &kernelTally{ops: map[string]int{}, cells: map[string]float64{}, elapsed: map[string]time.Duration{}}
}

// ran counts one operation planned onto kernel alg.
func (k *kernelTally) ran(alg string) {
	k.ops[alg]++
	k.total++
}

// timed adds one kernel run of known lattice size and Result.Elapsed.
func (k *kernelTally) timed(alg string, c float64, elapsed time.Duration) {
	k.cells[alg] += c
	k.elapsed[alg] += elapsed
}

// fill writes the shares and rates; kernels outside the benchmark's list
// are reported as a note.
func (k *kernelTally) fill(rep *report) {
	known := map[string]bool{}
	for _, alg := range kernels {
		known[alg] = true
		if k.total > 0 {
			rep.layer["plan.kernel_share."+alg] = float64(k.ops[alg]) / float64(k.total)
		}
		if el := k.elapsed[alg]; el > 0 {
			rep.layer["core.mcells_per_s."+alg] = k.cells[alg] / el.Seconds() / 1e6
		}
	}
	for alg, n := range k.ops {
		if !known[alg] {
			rep.notef("kernel %q ran %d times; it has no per-layer metric", alg, n)
		}
	}
}

// memSnap is a point-in-time reading of the allocation and GC counters.
type memSnap struct {
	alloc uint64
	gc    uint32
	at    time.Time
}

func snapMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{alloc: m.TotalAlloc, gc: m.NumGC, at: time.Now()}
}

// memDelta accumulates the allocation and GC counters over stretches of
// work.
type memDelta struct {
	alloc uint64
	gc    uint32
	dur   time.Duration
}

func (d memDelta) add(from, to memSnap) memDelta {
	return memDelta{alloc: d.alloc + to.alloc - from.alloc, gc: d.gc + to.gc - from.gc, dur: d.dur + to.at.Sub(from.at)}
}

// runtimeLayer writes the Go runtime metrics for work that completed ops
// operations.
func runtimeLayer(rep *report, d memDelta, ops int) {
	if ops > 0 {
		rep.layer["runtime.alloc_bytes_per_op"] = float64(d.alloc) / float64(ops)
	}
	if s := d.dur.Seconds(); s > 0 {
		rep.layer["runtime.gc_cycles_per_s"] = float64(d.gc) / s
	}
}

// addSched sums two scheduler deltas.
func addSched(a, b wavefront.SchedStats) wavefront.SchedStats {
	a.Runs += b.Runs
	a.SoloRuns += b.SoloRuns
	a.Stalls += b.Stalls
	a.Blocks += b.Blocks
	a.Keeps += b.Keeps
	a.Steals += b.Steals
	a.HelperJoins += b.HelperJoins
	return a
}

// wavefrontLayer writes the scheduler ratios for a stretch of work.
func wavefrontLayer(rep *report, d wavefront.SchedStats, ops int) {
	if d.Blocks > 0 {
		rep.layer["wavefront.keep_ratio"] = float64(d.Keeps) / float64(d.Blocks)
		rep.layer["wavefront.steal_ratio"] = float64(d.Steals) / float64(d.Blocks)
	}
	rep.layer["wavefront.solo_runs"] = float64(d.SoloRuns)
	if ops > 0 {
		rep.layer["wavefront.blocks_per_op"] = float64(d.Blocks) / float64(ops)
	}
}

// overheadLayer reports how much longer the traced pass took than the
// untraced one over the same work.
func overheadLayer(rep *report, untraced, traced time.Duration) {
	if untraced > 0 {
		rep.layer["trace.overhead_pct"] = 100 * (traced.Seconds() - untraced.Seconds()) / untraced.Seconds()
	}
	rep.notef("tracing overhead: untraced %.3fs, traced %.3fs", untraced.Seconds(), traced.Seconds())
}

// estRatios writes plan.est_ratio_p50/p90 from Elapsed/EstDuration
// samples.
func estRatios(rep *report, ratios []float64) {
	if len(ratios) > 0 {
		rep.layer["plan.est_ratio_p50"] = median(ratios)
		rep.layer["plan.est_ratio_p90"] = quantile(ratios, 0.9)
	}
}
