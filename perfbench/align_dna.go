package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	repro "repro"
	"repro/internal/plan"
	"repro/internal/wavefront"
)

const (
	// dnaTriplesPerSecond sizes the align-dna list: aligning it
	// dnaLatencyReps times at GOMAXPROCS workers and once at one worker
	// takes about --seconds on a 2-core host.
	dnaTriplesPerSecond = 58
	// dnaLatencyReps is how many times the GOMAXPROCS mode aligns each
	// triple. A triple's latency is the median of its runs: on a shared
	// host one run of the same triple took anywhere from 1× to 3× another
	// (a worker descheduled mid-wavefront stalls the whole lattice), so a
	// tail read from single runs was a draw of host stalls, not of the
	// inputs.
	dnaLatencyReps = 3
	// dnaWarmup triples are aligned at both worker counts during set-up.
	dnaWarmup = 24
)

// pass is one timed sweep of a workload's input list in one mode.
type pass struct {
	res  []*repro.Result
	errs []error
	lat  []float64 // ms per operation
	wall time.Duration
	// sched is the wavefront scheduler's work during this pass.
	sched wavefront.SchedStats
}

func newPass(n int) pass {
	return pass{res: make([]*repro.Result, n), errs: make([]error, n), lat: make([]float64, n)}
}

// rounds is how many chunks interleave()'s two modes alternate over.
const rounds = 10

// interleave runs every item in both modes, in rounds: each round takes
// the next chunk of items through mode 0 and then mode 1, or the other
// way round on odd rounds. On a shared host the machine's speed drifts
// over seconds; interleaving spreads both modes' samples over the whole
// run, so the drift moves them alike and averages out of each.
func interleave(n int, run func(mode, lo, hi int)) {
	for r := 0; r < rounds; r++ {
		lo, hi := r*n/rounds, (r+1)*n/rounds
		first := r % 2
		run(first, lo, hi)
		run(1-first, lo, hi)
	}
}

// alignBoth aligns every triple from one closed-loop caller at the
// default Options (GOMAXPROCS workers), dnaLatencyReps times, and once at
// one worker. Result j of the wide pass is repetition j/n of triple j%n,
// for n triples; each round sweeps its chunk once per repetition, so a
// triple's runs are a chunk's sweep apart. With a recorder,
// each operation is traced: the sketch the facade would take (triples of
// plan.MinBoundedLen and up), the plan, and the align call, whose
// Result.Elapsed becomes a core.kernel child span so the facade's own
// time is the align span's self time.
func alignBoth(ctx context.Context, inputs []repro.Triple, rec *recorder) (wide, one pass) {
	n := len(inputs)
	wide, one = newPass(n*dnaLatencyReps), newPass(n)
	interleave(n, func(mode, lo, hi int) {
		p, workers, reps, reqBase := &wide, 0, dnaLatencyReps, 0
		if mode == 1 {
			p, workers, reps, reqBase = &one, 1, 1, len(wide.res)
		}
		ws := wavefront.Stats()
		start := time.Now()
		for r := 0; r < reps; r++ {
			for i := lo; i < hi; i++ {
				j := r*n + i
				t0 := time.Now()
				opt := repro.Options{Workers: workers}
				if rec == nil {
					p.res[j], p.errs[j] = repro.AlignContext(ctx, inputs[i], opt)
				} else {
					p.res[j], p.errs[j] = tracedAlign(ctx, inputs[i], opt, rec, int64(reqBase+j+1))
				}
				p.lat[j] = ms(time.Since(t0))
			}
		}
		p.wall += time.Since(start)
		p.sched = addSched(p.sched, wavefront.Stats().Sub(ws))
	})
	return wide, one
}

// perTriple folds a pass's latencies into one per triple: the median of
// that triple's runs (results j ≡ i mod n, for n triples).
func perTriple(p pass, n int) []float64 {
	out := make([]float64, n)
	runs := make([]float64, 0, len(p.lat)/n)
	for i := range out {
		runs = runs[:0]
		for j := i; j < len(p.lat); j += n {
			runs = append(runs, p.lat[j])
		}
		out[i] = median(runs)
	}
	return out
}

func tracedAlign(ctx context.Context, tr repro.Triple, opt repro.Options, rec *recorder, req int64) (*repro.Result, error) {
	op := rec.begin("op", 0, req)
	defer rec.end(op)
	if min(tr.A.Len(), tr.B.Len(), tr.C.Len()) >= plan.MinBoundedLen {
		t0 := time.Now()
		opt.Sketch = repro.SketchTriple(tr)
		rec.add("seq.sketch", op, req, t0, time.Now())
	}
	t0 := time.Now()
	if _, err := repro.PlanAlign(tr, opt); err != nil {
		return nil, err
	}
	rec.add("plan.resolve", op, req, t0, time.Now())
	t0 = time.Now()
	res, err := repro.AlignContext(ctx, tr, opt)
	t1 := time.Now()
	id := rec.add("repro.align", op, req, t0, t1)
	if res != nil {
		rec.add("core.kernel", id, req, t1.Add(-res.Elapsed), t1)
	}
	return res, err
}

func runAlignDNA(ctx context.Context, cfg runConfig) (*report, error) {
	rep := newReport()
	count := dnaTriplesPerSecond * cfg.seconds
	var inputs []repro.Triple
	err := setUp(cfg, rep, func() error {
		inputs = dnaTriples(cfg.seed, count)
		wavefront.Prewarm(cfg.nproc)
		for _, tr := range dnaWarmupTriples(cfg.seed, dnaWarmup) {
			for _, w := range []int{0, 1} {
				if _, err := repro.AlignContext(ctx, tr, repro.Options{Workers: w}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	weights := make([]float64, count)
	var total float64
	for i, tr := range inputs {
		weights[i] = cells(tr)
		total += weights[i]
	}
	m0 := snapMem()
	wide, one := alignBoth(ctx, inputs, nil)
	m1 := snapMem()
	rep.e2e["peak_heap_mib"] = liveHeapPeak(largest(weights, count/rounds), func(i int) {
		_, _ = repro.AlignContext(ctx, inputs[i], repro.Options{}) // verified in the timed pass
	})
	lat := perTriple(wide, count)
	rep.e2e["ops_per_s"] = float64(len(wide.res)) / wide.wall.Seconds()
	rep.e2e["latency_p50_ms"] = median(lat)
	rep.tail = tailPercentile(lat)
	rep.e2e["latency_tail_ms"] = rep.tail.Value
	rep.e2e["mcells_per_s"] = dnaLatencyReps * total / wide.wall.Seconds() / 1e6
	rep.e2e["mcells_per_s_1w"] = total / one.wall.Seconds() / 1e6
	rep.notef("%d triples, %.3g lattice cells per pass; %d workers %d passes %.3fs, 1 worker %.3fs; latency per triple is the median of its %d runs",
		count, total, cfg.nproc, dnaLatencyReps, wide.wall.Seconds(), one.wall.Seconds(), dnaLatencyReps)
	passes := []pass{wide, one}

	if cfg.trace {
		runtimeLayer(rep, memDelta{}.add(m0, m1), len(wide.res)+len(one.res))
		rec := newRecorder()
		twide, tone := alignBoth(ctx, inputs, rec)
		wavefrontLayer(rep, twide.sched, len(twide.res))
		overheadLayer(rep, wide.wall+one.wall, twide.wall+tone.wall)
		rep.spans = rec.all()
		st := summarize(rep.spans)
		rep.layer["repro.overhead_us"] = median(st.self["repro.align"])
		rep.layer["seq.sketch_us"] = median(st.dur["seq.sketch"])
		rep.layer["plan.resolve_us"] = median(st.dur["plan.resolve"])
		tally := newKernelTally()
		var ratios, kernelMS []float64
		var evaluated, lattice float64
		for _, p := range []pass{twide, tone} {
			for i, res := range p.res {
				if res == nil {
					continue
				}
				alg := string(res.Algorithm)
				tally.ran(alg)
				tally.timed(alg, cells(inputs[i%count]), res.Elapsed)
				kernelMS = append(kernelMS, ms(res.Elapsed))
				if res.Plan != nil && res.Plan.EstDuration > 0 {
					ratios = append(ratios, res.Elapsed.Seconds()/res.Plan.EstDuration.Seconds())
				}
				if res.Prune != nil {
					evaluated += float64(res.Prune.EvaluatedCells)
					lattice += float64(res.Prune.TotalCells)
				}
			}
		}
		tally.fill(rep)
		estRatios(rep, ratios)
		rep.layer["core.kernel_ms_p50"] = median(kernelMS)
		if lattice > 0 {
			rep.layer["core.bounded_eval_fraction"] = evaluated / lattice
		}
		passes = append(passes, twide, tone)
	}

	gaps, err := verifyDNA(ctx, inputs, passes, cfg.nproc, rep)
	if err != nil {
		return nil, err
	}
	rep.e2e["sp_gap_per_family"] = gaps
	return rep, nil
}

// verifyDNA checks every pass's result for every triple against the
// linear-space exact kernel (an independent implementation of the same
// optimum), counting each mismatch or error as a failed operation. It
// returns the mean gap between the pairwise upper bound and the optimum.
func verifyDNA(ctx context.Context, inputs []repro.Triple, passes []pass, workers int, rep *report) (float64, error) {
	sch, err := repro.DefaultScheme(repro.DNA)
	if err != nil {
		return 0, err
	}
	refs := make([]*repro.Result, len(inputs))
	errs := make([]error, len(inputs))
	gaps := make([]float64, len(inputs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				refs[i], errs[i] = repro.AlignContext(ctx, inputs[i], repro.Options{Algorithm: repro.AlgorithmLinear, Workers: 1})
				if errs[i] == nil {
					tr := inputs[i]
					gaps[i] = float64(pairBound([]*repro.Sequence{tr.A, tr.B, tr.C}, sch) - refs[i].Score)
				}
			}
		}()
	}
	for i := range inputs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("reference alignment of triple %d: %w", i, err)
		}
	}
	for pi, p := range passes {
		rep.attempted += len(p.res)
		for i := range p.res {
			if p.errs[i] != nil {
				rep.failed++
				rep.notef("pass %d run %d (triple %d) failed: %v", pi, i, i%len(inputs), p.errs[i])
				continue
			}
			t := i % len(inputs)
			if err := verifyTriple(inputs[t], p.res[i], refs[t].Score, sch); err != nil {
				rep.mismatch("align-dna pass %d run %d (triple %d): %v", pi, i, t, err)
			}
		}
	}
	return mean(gaps), nil
}
