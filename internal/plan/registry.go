package plan

import (
	"context"

	"repro/internal/alignment"
	"repro/internal/core"
	"repro/internal/msa"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// RunFunc executes one kernel. PruneStats is non-nil only for the
// Carrillo–Lipman kernels.
type RunFunc func(ctx context.Context, tr seq.Triple, sch *scoring.Scheme, opt core.Options) (*alignment.Alignment, *core.PruneStats, error)

// KernelSpec is one algorithm's self-description: what it optimizes, how
// it scales, how to estimate its footprint, and how to run it. The
// registry of specs replaces the hard-coded algorithm switch that used to
// live in the facade.
type KernelSpec struct {
	// Name is the public algorithm name (repro.Algorithm value).
	Name string
	// Aliases are further public names that resolve to this kernel. Its
	// one-worker names come first ("full-packed" and "full" for
	// parallel-packed: a sequential fill is the blocked schedule run by
	// one worker); every alias from the first that spells "parallel" on
	// is a multi-worker name ("parallel", "diagonal"; bounded lists
	// "pruned-parallel" before "pruned", so it has no one-worker name).
	// An alias runs this kernel at whatever worker count the request
	// resolves to, and plans echo the requested name; the one-worker split
	// only decides how a downgrade names its target (see Resolve).
	Aliases []string
	// Gaps is the bitmask of gap models the kernel optimizes. Purely
	// descriptive for dispatch (an explicit request runs regardless, as the
	// old switch did), normative for automatic selection.
	Gaps GapModel
	// Space is the working-memory growth class; the downgrade ladder is
	// monotone non-increasing in it.
	Space SpaceClass
	// Parallel reports that the kernel exploits Options.Workers; the
	// others (A*, the affine Hirschberg, the heuristics) always plan one
	// worker.
	Parallel bool
	// Exact reports a provably optimal kernel (under its gap model), as
	// opposed to a heuristic; only exact kernels participate in the
	// Fallback degradation policy and the budget last resort.
	Exact bool
	// Traceback reports that the kernel reconstructs the full aligned rows
	// (every registered kernel currently does; score-only kernels would
	// clear it).
	Traceback bool
	// Blocked3D reports that the kernel runs the blocked 3D wavefront
	// schedule and therefore negotiates TileDims through the planner.
	Blocked3D bool
	// WidthAware reports that the kernel honors core.Options.CellWidth:
	// the planner may negotiate 16-bit lattice cells for it (halving the
	// byte estimate) when the request's score bound allows.
	WidthAware bool
	// BytesPerCell is the lattice cost per DP cell for blocked kernels
	// (4 for the single linear-gap tensor, 28 for the seven affine ones);
	// it parameterizes the adaptive tile heuristic.
	BytesPerCell int
	// RateKey and RateScale map the kernel onto the calibrated throughput
	// table: predicted rate = Calibration[RateKey] × RateScale, scaled by
	// the worker count for parallel kernels.
	RateKey   string
	RateScale float64
	// SoloRateKey, when set, replaces RateKey for one-worker plans. One
	// worker fills whole i-planes, which the benchsuite measures as the
	// sequential row ("full-packed"), not the cache-tiled blocked row
	// ("parallel-packed") that multi-worker predictions extrapolate from.
	SoloRateKey string
	// RateOnEvaluated marks the calibrated rate (and EstCellsFrac) as
	// per-*evaluated*-cell rather than per-lattice-cell: the bounded-search
	// kernels' throughput is measured over the cells the bound admits, so
	// their duration estimate must multiply by the predicted evaluated
	// count, never the full lattice. Plans for such kernels surface the
	// prediction as EstEvaluatedCells.
	RateOnEvaluated bool
	// Downgrade names the next kernel down the memory ladder, or "" when
	// only the heuristic last resort (exact kernels) or nothing (heuristics)
	// remains.
	Downgrade string
	// EstBytes predicts the peak working-set allocation for a shape,
	// saturating in uint64.
	EstBytes func(Shape) uint64
	// EstCells predicts the DP cell count; nil means the full lattice
	// Shape.Cells (linear-space kernels still fill every lattice cell —
	// their saving is space, not work).
	EstCells func(Shape) uint64
	// EstBytesFrac, when non-nil, refines EstBytes with a predicted
	// evaluated fraction (Request.EvalFraction); the planner uses it
	// whenever the request carries a prediction. EstBytes stays the
	// conservative fraction-1 model for requests without one.
	EstBytesFrac func(Shape, float64) uint64
	// EstCellsFrac is the fraction-aware companion of EstCells; for the
	// bounded kernels it predicts the evaluated cell count.
	EstCellsFrac func(Shape, float64) uint64
	// Run executes the kernel.
	Run RunFunc
}

func (k *KernelSpec) estCells(s Shape) uint64 {
	if k.EstCells != nil {
		return k.EstCells(s)
	}
	return s.Cells()
}

// Supports reports whether the kernel optimizes the gap model.
func (k *KernelSpec) Supports(g GapModel) bool { return k.Gaps&g != 0 }

var (
	kernels = make(map[string]*KernelSpec)
	order   []string
)

// Lookup finds a kernel spec by algorithm name or alias.
func Lookup(name string) (*KernelSpec, bool) {
	k, ok := kernels[name]
	return k, ok
}

// Kernels lists every registered spec in registration order, once each
// (aliases are not listed separately).
func Kernels() []*KernelSpec {
	out := make([]*KernelSpec, len(order))
	for i, name := range order {
		out[i] = kernels[name]
	}
	return out
}

func register(k *KernelSpec) {
	for _, name := range append([]string{k.Name}, k.Aliases...) {
		if _, dup := kernels[name]; dup {
			panic("plan: duplicate kernel " + name)
		}
		kernels[name] = k
	}
	order = append(order, k.Name)
}

// wrap adapts the common (Alignment, error) kernel signature to RunFunc.
func wrap(f func(context.Context, seq.Triple, *scoring.Scheme, core.Options) (*alignment.Alignment, error)) RunFunc {
	return func(ctx context.Context, tr seq.Triple, sch *scoring.Scheme, opt core.Options) (*alignment.Alignment, *core.PruneStats, error) {
		aln, err := f(ctx, tr, sch, opt)
		return aln, nil, err
	}
}

// wrapHeuristic adapts the context-free msa heuristics to RunFunc.
func wrapHeuristic(f func(seq.Triple, *scoring.Scheme) (*alignment.Alignment, error)) RunFunc {
	return func(_ context.Context, tr seq.Triple, sch *scoring.Scheme, _ core.Options) (*alignment.Alignment, *core.PruneStats, error) {
		aln, err := f(tr, sch)
		return aln, nil, err
	}
}

// runBounded runs a Carrillo–Lipman bounded-search kernel — the contiguous
// band fill or the A* frontier — seeded with the center-star-refined lower
// bound, surfacing its PruneStats.
func runBounded(frontier bool) RunFunc {
	return func(ctx context.Context, tr seq.Triple, sch *scoring.Scheme, opt core.Options) (*alignment.Alignment, *core.PruneStats, error) {
		bound, err := msa.CenterStarRefined(tr, sch)
		if err != nil {
			return nil, nil, err
		}
		var (
			aln *alignment.Alignment
			st  core.PruneStats
		)
		if frontier {
			aln, st, err = core.AlignAStar(ctx, tr, sch, opt, bound.Score)
		} else {
			aln, st, err = core.AlignBounded(ctx, tr, sch, opt, bound.Score)
		}
		if err != nil {
			return nil, nil, err
		}
		return aln, &st, nil
	}
}

// Footprint estimators. The byte models mirror what the kernels actually
// allocate: one int32 lattice for linear gaps, seven for affine,
// 4 sweep planes (Hirschberg) or 28 (affine Hirschberg), and int32
// score + traceback pairwise matrices for the heuristics.
func latticeBytes(perCell uint64) func(Shape) uint64 {
	return func(s Shape) uint64 { return mulSat(s.Cells(), perCell) }
}

func planeBytes(perCell uint64) func(Shape) uint64 {
	return func(s Shape) uint64 { return mulSat(s.PlaneCells(), perCell) }
}

func pairBytes(s Shape) uint64 { return mulSat(s.PairCells(), 12) }

func pairCells(s Shape) uint64 { return s.PairCells() }

func init() {
	// The lane-packed blocked fill: AVX2 two-pass max-plus scan where the
	// host has it, unrolled bounds-check-free windows elsewhere. It also
	// answers to the names of the retired scalar fill ("parallel", "full")
	// and plane-synchronized schedule ("diagonal"): same lattice, same
	// preference-ordered traceback, so the same bytes at a multiple of the
	// speed. One worker runs it plane by plane.
	register(&KernelSpec{
		Name: "parallel-packed", Aliases: []string{"full-packed", "full", "parallel", "diagonal"},
		Gaps: GapLinear, Space: SpaceLattice,
		Parallel: true, Exact: true, Traceback: true, Blocked3D: true, WidthAware: true, BytesPerCell: 4,
		RateKey: "parallel-packed", SoloRateKey: "full-packed", RateScale: 1,
		Downgrade: "parallel-linear", EstBytes: latticeBytes(4),
		Run: wrap(core.AlignParallel),
	})
	register(&KernelSpec{
		Name: "parallel-linear", Aliases: []string{"linear"}, Gaps: GapLinear, Space: SpacePlanes,
		Parallel: true, Exact: true, Traceback: true, BytesPerCell: 4,
		RateKey: "linear", RateScale: 1,
		EstBytes: planeBytes(16),
		Run:      wrap(core.AlignParallelLinear),
	})
	register(&KernelSpec{
		// The Carrillo–Lipman contiguous band: allocates only the cells the
		// three-way bound admits, so memory and work scale with the
		// evaluated fraction. Exact and bit-identical to the full kernel's
		// traceback; the rate and cell estimates are per evaluated cell.
		// The retired dense pruned fill's names resolve here: the band
		// stores a superset of the cells it evaluated, so its PruneStats
		// report at least as many evaluated cells.
		Name: "bounded", Aliases: []string{"pruned-parallel", "pruned"}, Gaps: GapLinear, Space: SpaceBand,
		Parallel: true, Exact: true, Traceback: true, BytesPerCell: 4,
		RateKey: "bounded", RateScale: 1, RateOnEvaluated: true,
		Downgrade:    "parallel-linear",
		EstBytes:     func(s Shape) uint64 { return bandBytes(s, 1) },
		EstBytesFrac: bandBytes, EstCellsFrac: fracCells,
		Run: runBounded(false),
	})
	register(&KernelSpec{
		// The A* frontier (Schroedl): best-first over the lattice with the
		// pairwise suffix heuristic. No lattice-shaped allocation at all —
		// memory is per expanded node — which wins on very similar triples
		// whose admissible region is a thin tube, at a steep per-node cost.
		Name: "astar", Gaps: GapLinear, Space: SpaceBand,
		Exact: true, Traceback: true, BytesPerCell: 4,
		RateKey: "astar", RateScale: 1, RateOnEvaluated: true,
		Downgrade:    "parallel-linear",
		EstBytes:     func(s Shape) uint64 { return astarBytes(s, 1) },
		EstBytesFrac: astarBytes, EstCellsFrac: fracCells,
		Run: runBounded(true),
	})
	register(&KernelSpec{
		Name: "affine-parallel", Aliases: []string{"affine"}, Gaps: GapAffine, Space: SpaceLattice,
		Parallel: true, Exact: true, Traceback: true, Blocked3D: true, BytesPerCell: 28,
		RateKey: "affine7", RateScale: 1,
		Downgrade: "affine-linear", EstBytes: latticeBytes(28),
		Run: wrap(core.AlignAffineParallel),
	})
	register(&KernelSpec{
		// The affine Hirschberg halves at every level; its rate is roughly
		// half the one-pass affine fill's.
		Name: "affine-linear", Gaps: GapAffine, Space: SpacePlanes,
		Exact: true, Traceback: true, BytesPerCell: 28,
		RateKey: "affine7", RateScale: 0.5,
		EstBytes: planeBytes(112),
		Run:      wrap(core.AlignAffineLinear),
	})
	register(&KernelSpec{
		Name: "center-star", Gaps: GapLinear | GapAffine, Space: SpacePairwise,
		Traceback: true,
		RateKey:   "pairwise-global", RateScale: 1,
		EstBytes: pairBytes, EstCells: pairCells,
		Run: wrapHeuristic(msa.CenterStar),
	})
	register(&KernelSpec{
		// Refinement re-aligns each row against the other two a bounded
		// number of rounds; call it half the raw center-star rate.
		Name: "center-star-refined", Gaps: GapLinear | GapAffine, Space: SpacePairwise,
		Traceback: true,
		RateKey:   "pairwise-global", RateScale: 0.5,
		EstBytes: pairBytes, EstCells: pairCells,
		Run: wrapHeuristic(msa.CenterStarRefined),
	})
	register(&KernelSpec{
		Name: "progressive", Gaps: GapLinear | GapAffine, Space: SpacePairwise,
		Traceback: true,
		RateKey:   "pairwise-global", RateScale: 0.7,
		EstBytes: pairBytes, EstCells: pairCells,
		Run: wrapHeuristic(msa.Progressive),
	})

	// Registry self-check: every downgrade edge must exist and move down
	// (or stay level in) the space-class ladder, or the budget loop in
	// Resolve could cycle or dead-end on a typo; every rate key must have a
	// calibration row, or duration predictions silently go to zero.
	for _, k := range Kernels() {
		for _, key := range []string{k.RateKey, k.SoloRateKey} {
			if _, ok := Calibration[key]; !ok && key != "" {
				panic("plan: " + k.Name + " has no calibration entry for rate key " + key)
			}
		}
		if k.Downgrade == "" {
			continue
		}
		to, ok := kernels[k.Downgrade]
		if !ok {
			panic("plan: " + k.Name + " downgrades to unregistered " + k.Downgrade)
		}
		if to.Space >= k.Space {
			panic("plan: downgrade " + k.Name + "→" + to.Name + " does not shrink the space class")
		}
	}
}
