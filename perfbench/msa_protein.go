package main

import (
	"context"
	"fmt"
	"time"

	repro "repro"
	"repro/internal/msa"
	"repro/internal/wavefront"
)

const (
	// msaFamiliesPerSecond sizes the msa-protein list: aligning it fanned
	// and with one worker and serial merges takes about --seconds on a
	// 2-core host.
	msaFamiliesPerSecond = 2
	// msaWarmup families are aligned in both modes during set-up.
	msaWarmup = 2
	// msaRefineRounds matches AlignMSA's default polish.
	msaRefineRounds = 2
)

// msaPass is one timed sweep of the family list.
type msaPass struct {
	res   []*repro.MSAResult
	errs  []error
	lat   []float64
	wall  time.Duration
	sched wavefront.SchedStats
}

// msaOptions are the two modes: the default (levels fanned through the
// batch layer at GOMAXPROCS workers) and one worker with serial merges.
func msaOptions(single bool) repro.MSAOptions {
	if single {
		return repro.MSAOptions{Options: repro.Options{Workers: 1}, SerialMerges: true}
	}
	return repro.MSAOptions{}
}

// msaBoth aligns every family from one closed-loop caller in both
// modes, interleaved (see interleave). With a recorder each family is
// traced: AlignMSA itself, and the layers it drives timed by separate
// calls on the same family — the guide tree, the MSA plan, the N-way
// center star, and refinement of that center star.
func msaBoth(ctx context.Context, fams [][]*repro.Sequence, rec *recorder) (wide, one msaPass, err error) {
	newMSAPass := func() msaPass {
		return msaPass{res: make([]*repro.MSAResult, len(fams)), errs: make([]error, len(fams)), lat: make([]float64, len(fams))}
	}
	wide, one = newMSAPass(), newMSAPass()
	interleave(len(fams), func(mode, lo, hi int) {
		p := &wide
		if mode == 1 {
			p = &one
		}
		opt := msaOptions(mode == 1)
		ws := wavefront.Stats()
		start := time.Now()
		for i := lo; i < hi && err == nil; i++ {
			t0 := time.Now()
			if rec == nil {
				p.res[i], p.errs[i] = repro.AlignMSA(ctx, fams[i], opt)
			} else {
				req := int64(mode*len(fams) + i + 1)
				op := rec.begin("op", 0, req)
				a := time.Now()
				p.res[i], p.errs[i] = repro.AlignMSA(ctx, fams[i], opt)
				rec.add("repro.msa", op, req, a, time.Now())
				err = traceMSALayers(ctx, fams[i], opt, rec, op, req)
				rec.end(op)
			}
			p.lat[i] = ms(time.Since(t0))
		}
		p.wall += time.Since(start)
		p.sched = addSched(p.sched, wavefront.Stats().Sub(ws))
	})
	return wide, one, err
}

func traceMSALayers(ctx context.Context, fam []*repro.Sequence, opt repro.MSAOptions, rec *recorder, op, req int64) error {
	sch, err := repro.DefaultScheme(repro.Protein)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := msa.BuildGuideTree(fam, repro.ProbeK); err != nil {
		return fmt.Errorf("guide tree: %w", err)
	}
	rec.add("msa.tree", op, req, t0, time.Now())
	t0 = time.Now()
	if _, err := repro.PlanMSA(fam, opt); err != nil {
		return fmt.Errorf("msa plan: %w", err)
	}
	rec.add("msa.plan", op, req, t0, time.Now())
	t0 = time.Now()
	cs, err := msa.CenterStarN(fam, sch)
	if err != nil {
		return fmt.Errorf("center star: %w", err)
	}
	rec.add("msa.centerstar", op, req, t0, time.Now())
	t0 = time.Now()
	if _, err := msa.RefineMultiContext(ctx, cs, sch, msaRefineRounds); err != nil {
		return fmt.Errorf("refine: %w", err)
	}
	rec.add("msa.refine", op, req, t0, time.Now())
	return nil
}

func runMSAProtein(ctx context.Context, cfg runConfig) (*report, error) {
	rep := newReport()
	count := msaFamiliesPerSecond * cfg.seconds
	var fams [][]*repro.Sequence
	err := setUp(cfg, rep, func() error {
		fams = proteinFamilies(cfg.seed, count)
		wavefront.Prewarm(cfg.nproc)
		for _, fam := range proteinWarmupFamilies(cfg.seed, msaWarmup) {
			for _, single := range []bool{false, true} {
				if _, err := repro.AlignMSA(ctx, fam, msaOptions(single)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	m0 := snapMem()
	wide, one, err := msaBoth(ctx, fams, nil)
	if err != nil {
		return nil, err
	}
	m1 := snapMem()
	weights := make([]float64, count)
	for i, fam := range fams {
		maxLen := 0
		for _, s := range fam {
			maxLen = max(maxLen, s.Len())
		}
		weights[i] = float64(len(fam)) * float64(maxLen*maxLen*maxLen)
	}
	rep.e2e["peak_heap_mib"] = liveHeapPeak(largest(weights, count/rounds), func(i int) {
		_, _ = repro.AlignMSA(ctx, fams[i], msaOptions(false)) // verified in the timed pass
	})
	rep.e2e["ops_per_s"] = float64(count) / wide.wall.Seconds()
	rep.e2e["latency_p50_ms"] = median(wide.lat)
	rep.tail = tailPercentile(wide.lat)
	rep.e2e["latency_tail_ms"] = rep.tail.Value
	rep.e2e["mcells_per_s"] = mergeCells(wide) / wide.wall.Seconds() / 1e6
	rep.e2e["mcells_per_s_1w"] = mergeCells(one) / one.wall.Seconds() / 1e6
	var gaps []float64
	for _, r := range wide.res {
		if r != nil {
			gaps = append(gaps, float64(r.OptimalityGap))
		}
	}
	rep.e2e["sp_gap_per_family"] = mean(gaps)
	rep.notef("%d families; fanned %.3fs, 1 worker serial %.3fs; mcells are the planned lattices of the 3-way merges",
		count, wide.wall.Seconds(), one.wall.Seconds())
	passes := []msaPass{wide, one}

	if cfg.trace {
		runtimeLayer(rep, memDelta{}.add(m0, m1), 2*count)
		rec := newRecorder()
		twide, tone, err := msaBoth(ctx, fams, rec)
		if err != nil {
			return nil, err
		}
		wavefrontLayer(rep, twide.sched, count)
		// The traced loop also makes the separate layer calls; compare
		// the AlignMSA calls alone against the untraced passes.
		rep.spans = rec.all()
		st := summarize(rep.spans)
		var alignUS float64
		for _, d := range st.dur["repro.msa"] {
			alignUS += d
		}
		overheadLayer(rep, wide.wall+one.wall, time.Duration(alignUS*float64(time.Microsecond)))
		for _, name := range []string{"tree", "plan", "centerstar", "refine"} {
			rep.layer["msa."+name+"_ms"] = median(st.dur["msa."+name]) / 1000
		}
		msaLayers(rep, twide, tone)
		passes = append(passes, twide, tone)
	}

	sch, err := repro.DefaultScheme(repro.Protein)
	if err != nil {
		return nil, err
	}
	for pi, p := range passes {
		rep.attempted += len(p.res)
		for i, r := range p.res {
			if p.errs[i] != nil {
				rep.failed++
				rep.notef("pass %d family %d failed: %v", pi, i, p.errs[i])
				continue
			}
			if err := verifyMSA(fams[i], r, sch); err != nil {
				rep.mismatch("msa-protein pass %d family %d: %v", pi, i, err)
			}
		}
	}
	return rep, nil
}

// mergeCells sums the planned lattice cells of a pass's 3-way merges.
func mergeCells(p msaPass) float64 {
	var c float64
	for _, r := range p.res {
		if r == nil {
			continue
		}
		for _, m := range r.Merges {
			if m.NWay == 3 && m.Plan != nil {
				c += float64(m.Plan.EstCells)
			}
		}
	}
	return c
}

// msaLayers derives the merge-level metrics. All 3-way merges of one
// guide-tree level report the level's Elapsed (fanned through one batch,
// or run one after another in serial mode), so per-kernel rates and
// kernel times come from levels with a single 3-way merge, where Elapsed
// is that merge's own, and msa.merge_ms counts each level once.
func msaLayers(rep *report, wide, one msaPass) {
	tally := newKernelTally()
	var ratios, kernelMS, mergeMS, batchSizes []float64
	var threeWay, batched int
	for pi, p := range []msaPass{wide, one} {
		for _, r := range p.res {
			if r == nil {
				continue
			}
			perLevel := map[int]int{}
			for _, m := range r.Merges {
				if m.NWay == 3 {
					perLevel[m.Level]++
				}
			}
			var famMerge time.Duration
			counted := map[int]bool{}
			for _, m := range r.Merges {
				if m.NWay != 3 {
					famMerge += m.Elapsed
					continue
				}
				if !counted[m.Level] {
					counted[m.Level] = true
					famMerge += m.Elapsed
				}
				if m.Plan == nil {
					continue
				}
				tally.ran(string(m.Algorithm))
				if pi == 0 {
					threeWay++
					batchSizes = append(batchSizes, float64(m.BatchSize))
				}
				if perLevel[m.Level] == 1 {
					tally.timed(string(m.Algorithm), float64(m.Plan.EstCells), m.Elapsed)
					kernelMS = append(kernelMS, ms(m.Elapsed))
					if m.Plan.EstDuration > 0 {
						ratios = append(ratios, m.Elapsed.Seconds()/m.Plan.EstDuration.Seconds())
					}
				}
			}
			if pi == 0 {
				batched += r.BatchedMerges
				mergeMS = append(mergeMS, ms(famMerge))
			}
		}
	}
	tally.fill(rep)
	estRatios(rep, ratios)
	rep.layer["core.kernel_ms_p50"] = median(kernelMS)
	rep.layer["msa.merge_ms"] = median(mergeMS)
	if threeWay > 0 {
		rep.layer["msa.batched_ratio"] = float64(batched) / float64(threeWay)
	}
	rep.layer["msa.merge_batch_mean"] = mean(batchSizes)
}
