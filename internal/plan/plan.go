// Package plan is the memory-aware execution planner: the single place
// where the library decides *how* a three-sequence alignment runs.
//
// Every kernel self-describes through a KernelSpec in the registry
// (registry.go): which gap models it optimizes, its space class, whether
// it runs on the wavefront pool, and how to estimate its lattice
// footprint for a problem Shape. Resolve maps a Request — shape, gap
// model, requested algorithm, workers, tile override, and memory budgets
// — onto an ExecutionPlan: the concrete kernel, its tile dimensions, and
// the predicted cells, bytes, throughput, and duration of the run.
//
// The prediction side is calibrated from the committed BENCH_<rev>.json
// baseline (calib.go); `benchsuite -calibrate` re-derives the constants
// and fails when they drift from the committed table.
//
// Budgets come in two strengths:
//
//   - Request.MaxBytes is the hard admission cap the kernels themselves
//     enforce (core.Options.MaxBytes, ErrTooLarge). The planner only uses
//     it to steer automatic selection, exactly as the old resolveAlgorithm
//     switch did: an auto request whose full lattice exceeds the cap gets
//     the linear-space sibling.
//
//   - Request.MaxMemoryBytes is the soft planning budget. When set, the
//     planner walks the downgrade ladder — full lattice → linear-space
//     sweep planes → (for exact requests) the center-star-refined
//     heuristic as a degraded last resort — until the estimated footprint
//     fits, recording every step in ExecutionPlan.Downgrades. A plan that
//     cannot fit even its cheapest kernel fails with an error wrapping
//     core.ErrTooLarge.
//
// All cell and byte arithmetic saturates in uint64, so adversarially long
// sequences produce a saturated estimate instead of a wrapped-around small
// one (the overflow class of bug the old int-typed lattice guard had).
package plan

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faultpoint"
	"repro/internal/wavefront"
)

// fpDowngrade forces one extra step down the space-class ladder on a fired
// hit, as if the resolved kernel's estimate had come in over budget. Chaos
// runs use it to drive the downgrade machinery — and everything downstream
// that reads ExecutionPlan.Downgrades — deterministically, without
// crafting shapes that straddle a real budget boundary.
var fpDowngrade = faultpoint.New("plan.downgrade")

// GapModel is the gap-cost family a scoring scheme uses and a kernel
// optimizes. Specs carry a bitmask; requests carry a single model.
type GapModel uint8

const (
	// GapLinear is the linear gap model: cost proportional to gap length.
	GapLinear GapModel = 1 << iota
	// GapAffine is the quasi-natural affine model: open + extend costs.
	GapAffine
)

func (g GapModel) String() string {
	switch g {
	case GapLinear:
		return "linear"
	case GapAffine:
		return "affine"
	}
	return fmt.Sprintf("gap-model(%d)", uint8(g))
}

// SpaceClass orders kernels by the asymptotic growth of their working
// memory. The downgrade ladder is monotone non-increasing in this order.
type SpaceClass int

const (
	// SpacePairwise is O(n²) pairwise matrices — the heuristics.
	SpacePairwise SpaceClass = iota
	// SpacePlanes is O(m·p) sweep planes — the linear-space exact kernels.
	SpacePlanes
	// SpaceBand is the Carrillo–Lipman admissible band: O(f·n·m·p) for the
	// data-dependent evaluated fraction f, plus the O(n²) projection planes.
	// It sits between the sweep planes and the full lattice because f is
	// bounded only by the data — near-identical triples make it tiny,
	// unrelated ones make it the whole lattice.
	SpaceBand
	// SpaceLattice is the O(n·m·p) full lattice.
	SpaceLattice
)

func (c SpaceClass) String() string {
	switch c {
	case SpacePairwise:
		return "O(n²)"
	case SpacePlanes:
		return "O(m·p)"
	case SpaceBand:
		return "O(f·n·m·p)"
	case SpaceLattice:
		return "O(n·m·p)"
	}
	return fmt.Sprintf("space-class(%d)", int(c))
}

// Shape is the problem size: residue counts of the three sequences. It is
// deliberately three ints rather than a Triple so that plans — including
// tests with adversarially long sequences — need no allocation.
type Shape struct {
	NA, NB, NC int
}

// mulSat is saturating uint64 multiplication.
func mulSat(a, b uint64) uint64 {
	if a != 0 && b > math.MaxUint64/a {
		return math.MaxUint64
	}
	return a * b
}

// addSat is saturating uint64 addition.
func addSat(a, b uint64) uint64 {
	if a > math.MaxUint64-b {
		return math.MaxUint64
	}
	return a + b
}

// Cells is the DP lattice cell count (na+1)(nb+1)(nc+1), saturating at
// MaxUint64.
func (s Shape) Cells() uint64 {
	return mulSat(mulSat(uint64(s.NA)+1, uint64(s.NB)+1), uint64(s.NC)+1)
}

// PlaneCells is the (nb+1)(nc+1) sweep-plane cell count the linear-space
// kernels re-fill, saturating.
func (s Shape) PlaneCells() uint64 {
	return mulSat(uint64(s.NB)+1, uint64(s.NC)+1)
}

// PairCells sums the three pairwise DP matrix sizes the heuristics fill,
// saturating.
func (s Shape) PairCells() uint64 {
	ab := mulSat(uint64(s.NA)+1, uint64(s.NB)+1)
	ac := mulSat(uint64(s.NA)+1, uint64(s.NC)+1)
	bc := mulSat(uint64(s.NB)+1, uint64(s.NC)+1)
	return addSat(addSat(ab, ac), bc)
}

func (s Shape) valid() bool { return s.NA >= 0 && s.NB >= 0 && s.NC >= 0 }

// Request is one planning problem.
type Request struct {
	// Shape is the triple's residue counts.
	Shape Shape
	// Gap is the scheme's gap model; zero means GapLinear.
	Gap GapModel
	// Algorithm is the requested kernel name or alias; empty means
	// automatic selection by gap model and budget.
	Algorithm string
	// Workers is the requested pool size; non-positive means GOMAXPROCS.
	// The resolved count is the planner's only parallelism input: it sets
	// the tiling (whole i-planes at one worker), the rate row, and the
	// bounded-search frontier choice.
	Workers int
	// BlockSize is an explicit cubic tile override for blocked kernels;
	// non-positive means the adaptive heuristic picks the shape.
	BlockSize int
	// MaxBytes is the hard lattice admission cap (kernels reject beyond
	// it); non-positive means core.DefaultMaxBytes. It steers automatic
	// selection only — explicit algorithms keep their historical
	// reject-with-ErrTooLarge contract.
	MaxBytes int64
	// MaxMemoryBytes, when positive, is the soft planning budget: the
	// planner downgrades along the space-class ladder until the estimated
	// footprint fits, instead of rejecting.
	MaxMemoryBytes int64
	// MaxAbsColumn bounds the absolute SP score of a single alignment
	// column under the request's scheme (core.MaxAbsColumn). Together with
	// the shape it lets the planner negotiate the lattice cell width: when
	// (NA+NB+NC)·MaxAbsColumn provably fits int16, width-aware kernels run
	// on 16-bit cells and their byte estimates halve. Zero (unknown bound)
	// keeps every plan at 32-bit cells.
	MaxAbsColumn int64
	// EvalFraction, when in (0, 1], is the predicted fraction of lattice
	// cells the Carrillo–Lipman bound will admit (typically
	// EvalFractionForIdentity over a k-mer identity probe). It makes the
	// bounded-search kernels eligible for automatic selection and scales
	// their byte and duration estimates. Zero means no prediction: the
	// bounded kernels are planned at the full lattice and automatic
	// selection ignores them.
	EvalFraction float64
}

// ExecutionPlan is the planner's answer: the kernel that will run and the
// predicted footprint of the run. It is attached to every Result and
// served verbatim by alignd's POST /v1/plan.
type ExecutionPlan struct {
	// Algorithm is the kernel the plan selects, under the name the request
	// used for it: an explicit alias ("full", "diagonal", "pruned") is
	// echoed rather than replaced by its kernel's name ("parallel-packed",
	// "bounded"). After a downgrade it names the target, keeping to
	// one-worker names when the request used one ("full→linear").
	Algorithm string `json:"algorithm"`
	// Workers is the pool size the kernel will use: the resolved request
	// worker count for kernels that run on the wavefront pool, 1 for those
	// that cannot use it (A*, the affine Hirschberg, the heuristics).
	Workers int `json:"workers"`
	// TileDims is the blocked-wavefront tile shape (ti, tj, tk) — the
	// whole-plane (1, nb+1, nc+1) at one worker; all-zero for kernels that
	// do not run the blocked 3D schedule.
	TileDims [3]int `json:"tile_dims"`
	// EstCells is the predicted DP cell count (saturating). For the
	// bounded-search kernels this is the predicted *evaluated* count — the
	// cells the Carrillo–Lipman bound is expected to admit — since that is
	// what their calibrated rate and footprint scale with.
	EstCells uint64 `json:"est_cells"`
	// EstEvaluatedCells, for the bounded-search kernels, is the predicted
	// number of lattice cells the Carrillo–Lipman bound admits (equal to
	// EstCells for those kernels); zero for kernels that evaluate the full
	// lattice.
	EstEvaluatedCells uint64 `json:"est_evaluated_cells,omitempty"`
	// EstBytes is the predicted peak lattice allocation (saturating),
	// already adjusted for the negotiated cell width.
	EstBytes uint64 `json:"est_bytes"`
	// CellWidthBits is the negotiated lattice cell width: 16 when the
	// kernel is width-aware and the request's score bound proves every
	// lattice value fits int16, else 32.
	CellWidthBits int `json:"cell_width_bits"`
	// EstMcellsPerSec is the calibrated throughput prediction.
	EstMcellsPerSec float64 `json:"est_mcells_per_s"`
	// EstDuration is EstCells / EstMcellsPerSec.
	EstDuration time.Duration `json:"est_duration_ns"`
	// Downgrades records every budget-driven substitution, in order, as
	// "from→to: est <bytes> over <budget> budget" entries.
	Downgrades []string `json:"downgrades,omitempty"`
	// Degraded reports that an exact request was downgraded to a heuristic
	// as the last resort: the planned score will be a lower bound, not the
	// optimum.
	Degraded bool `json:"degraded,omitempty"`
}

// lastResort is the heuristic an exact request degrades to when no exact
// kernel fits the memory budget.
const lastResort = "center-star-refined"

// Resolve maps a Request onto an ExecutionPlan and the KernelSpec that
// will run it. Unknown algorithm names and budgets too small for any
// kernel (the latter wrapping core.ErrTooLarge) are errors.
func Resolve(req Request) (*ExecutionPlan, *KernelSpec, error) {
	if !req.Shape.valid() {
		return nil, nil, fmt.Errorf("plan: negative sequence length in shape %+v", req.Shape)
	}
	gap := req.Gap
	if gap == 0 {
		gap = GapLinear
	}
	workers := wavefront.Workers(req.Workers)

	var (
		spec       *KernelSpec
		downgrades []string
		degraded   bool
	)
	if req.Algorithm != "" {
		s, ok := Lookup(req.Algorithm)
		if !ok {
			return nil, nil, fmt.Errorf("plan: unknown algorithm %q", req.Algorithm)
		}
		spec = s
	} else {
		spec, downgrades = autoSpec(req, gap, workers, autoBudget(req))
	}
	// name is the plan's public name for spec. A request made under a
	// one-worker name stays among them as it walks down the ladder, so an
	// over-budget "full" reads "full→linear" where "parallel" reads
	// "parallel→parallel-linear"; every other name steps to the target's
	// kernel name.
	name := spec.Name
	if req.Algorithm != "" {
		name = req.Algorithm
	}
	down := func(to *KernelSpec, why string) {
		toName := to.Name
		if oneWorkerName(spec, name) && len(to.Aliases) > 0 && oneWorkerName(to, to.Aliases[0]) {
			toName = to.Aliases[0]
		}
		downgrades = append(downgrades, name+"→"+toName+": "+why)
		spec, name = to, toName
	}

	if fpDowngrade.Fire() {
		if next := spec.Downgrade; next != "" {
			down(kernels[next], "forced by fault point plan.downgrade")
		}
	}

	// The soft budget walks the downgrade ladder until the estimate fits.
	// Width-aware kernels are judged by their negotiated-width footprint, so
	// a lattice that fits only at 16 bits stays on the fast kernel instead
	// of downgrading.
	if req.MaxMemoryBytes > 0 {
		budget := uint64(req.MaxMemoryBytes)
		for planEstBytes(spec, req) > budget {
			// A full-lattice kernel over budget tries the Carrillo–Lipman
			// band before surrendering exactness to the sweep planes or the
			// heuristic: when the request carries an identity-probe
			// prediction and the predicted band fits, the ladder lands on a
			// still-exact, still-traceback kernel.
			if cand := boundedCandidate(req, gap, workers); cand != nil &&
				cand.Space < spec.Space && planEstBytes(cand, req) <= budget {
				down(cand, overBudget(spec, req, budget))
				continue
			}
			next := spec.Downgrade
			if next == "" {
				if !spec.Exact {
					return nil, nil, fmt.Errorf(
						"plan: no kernel fits the %s memory budget (cheapest %q needs %s): %w",
						fmtBytes(budget), name, fmtBytes(planEstBytes(spec, req)), core.ErrTooLarge)
				}
				next = lastResort
				degraded = true
			}
			down(kernels[next], overBudget(spec, req, budget))
		}
	}

	width := negotiatedWidth(spec, req)
	pl := &ExecutionPlan{
		Algorithm:     name,
		Workers:       1,
		EstCells:      planEstCells(spec, req),
		EstBytes:      planEstBytes(spec, req),
		CellWidthBits: width,
		Downgrades:    downgrades,
		Degraded:      degraded,
	}
	if spec.RateOnEvaluated {
		pl.EstEvaluatedCells = pl.EstCells
	}
	if spec.Parallel {
		pl.Workers = workers
	}
	if spec.Blocked3D {
		if req.BlockSize > 0 {
			pl.TileDims = [3]int{req.BlockSize, req.BlockSize, req.BlockSize}
		} else {
			bpc := spec.BytesPerCell
			if width == 16 {
				// Half-width cells halve the per-tile working set, so the
				// adaptive heuristic may pick proportionally larger tiles.
				bpc /= 2
			}
			ti, tj, tk := core.AdaptiveTileDims(
				req.Shape.NA+1, req.Shape.NB+1, req.Shape.NC+1, workers, bpc)
			pl.TileDims = [3]int{ti, tj, tk}
		}
	}
	pl.EstMcellsPerSec = rateFor(spec, pl.Workers)
	pl.EstDuration = estDuration(pl.EstCells, pl.EstMcellsPerSec)
	return pl, spec, nil
}

// oneWorkerName reports whether name is one of spec's one-worker aliases:
// those listed before the first alias that spells "parallel" (see
// KernelSpec.Aliases).
func oneWorkerName(spec *KernelSpec, name string) bool {
	for _, a := range spec.Aliases {
		if strings.Contains(a, "parallel") {
			return false
		}
		if a == name {
			return true
		}
	}
	return false
}

// negotiatedWidth is the lattice cell width (in bits) the kernel will run
// at: 16 when the kernel honors core.Options.CellWidth and the request's
// column bound proves every lattice value — |score| ≤ total·MaxAbsColumn —
// fits int16; 32 otherwise. The same Int16SafeBound predicate gates the
// kernels themselves (core.Options.CellWidth is a hint, never trusted), so
// plan and execution cannot disagree.
func negotiatedWidth(spec *KernelSpec, req Request) int {
	if !spec.WidthAware || req.MaxAbsColumn <= 0 {
		return 32
	}
	total := addSat(addSat(uint64(req.Shape.NA), uint64(req.Shape.NB)), uint64(req.Shape.NC))
	if core.Int16SafeBound(total, uint64(req.MaxAbsColumn)) {
		return 16
	}
	return 32
}

// planEstBytes is the width-adjusted footprint estimate: half the 32-bit
// model when the kernel would run 16-bit cells. Kernels with a
// fraction-aware byte model are judged by it whenever the request carries
// an evaluated-fraction prediction.
func planEstBytes(spec *KernelSpec, req Request) uint64 {
	var b uint64
	if spec.EstBytesFrac != nil && req.EvalFraction > 0 {
		b = spec.EstBytesFrac(req.Shape, req.EvalFraction)
	} else {
		b = spec.EstBytes(req.Shape)
	}
	if negotiatedWidth(spec, req) == 16 {
		b /= 2
	}
	return b
}

// planEstCells is the cell-count estimate: the predicted evaluated count
// for fraction-aware kernels when the request carries a prediction, the
// spec's own model otherwise.
func planEstCells(spec *KernelSpec, req Request) uint64 {
	if spec.EstCellsFrac != nil && req.EvalFraction > 0 {
		return spec.EstCellsFrac(req.Shape, req.EvalFraction)
	}
	return spec.estCells(req.Shape)
}

// predictedDuration is the wall-clock estimate automatic selection
// compares kernels by: predicted cells over the calibrated rate at the
// worker count the kernel would actually use.
func predictedDuration(spec *KernelSpec, req Request, workers int) time.Duration {
	if !spec.Parallel {
		workers = 1
	}
	return estDuration(planEstCells(spec, req), rateFor(spec, workers))
}

// autoBudget is the byte limit automatic selection steers against: the
// hard admission cap, tightened by the soft budget when one is set.
func autoBudget(req Request) uint64 {
	b := req.MaxBytes
	if b <= 0 {
		b = core.DefaultMaxBytes
	}
	budget := uint64(b)
	if req.MaxMemoryBytes > 0 && uint64(req.MaxMemoryBytes) < budget {
		budget = uint64(req.MaxMemoryBytes)
	}
	return budget
}

// autoSpec picks the kernel for an automatic request: the gap model's
// blocked primary — the lane-packed fill for linear gaps, the seven-state
// fill for affine ones, at every worker count — downgraded once to its
// linear-space sibling when the primary's lattice exceeds the budget. A
// fitting Carrillo–Lipman candidate takes the slot when it is predicted
// faster, or when the primary does not fit.
func autoSpec(req Request, gap GapModel, workers int, budget uint64) (*KernelSpec, []string) {
	spec := kernels["parallel-packed"]
	if gap == GapAffine {
		spec = kernels["affine-parallel"]
	}
	cand := boundedCandidate(req, gap, workers)
	if planEstBytes(spec, req) <= budget {
		// The primary fits; the Carrillo–Lipman band still wins the slot
		// when the identity probe predicts it strictly faster — evaluating
		// a thin admissible band beats filling the whole lattice even at a
		// lower per-cell rate.
		if cand != nil && planEstBytes(cand, req) <= budget &&
			predictedDuration(cand, req, workers) < predictedDuration(spec, req, workers) {
			return cand, nil
		}
		return spec, nil
	}
	// Over budget: a fitting bounded kernel is the preferred downgrade —
	// it keeps exactness and the preference-ordered traceback, unlike the
	// sweep planes' divide-and-conquer.
	if cand != nil && planEstBytes(cand, req) <= budget {
		return cand, []string{downgradeEntry(spec, cand, req, budget)}
	}
	next := kernels[spec.Downgrade]
	return next, []string{downgradeEntry(spec, next, req, budget)}
}

// downgradeEntry formats one ladder step for ExecutionPlan.Downgrades.
func downgradeEntry(from, to *KernelSpec, req Request, budget uint64) string {
	return from.Name + "→" + to.Name + ": " + overBudget(from, req, budget)
}

// overBudget is the reason a budget-driven downgrade records for spec.
func overBudget(spec *KernelSpec, req Request, budget uint64) string {
	return fmt.Sprintf("est %s over %s budget", fmtBytes(planEstBytes(spec, req)), fmtBytes(budget))
}

// ParseDowngrade splits a Downgrades entry back into the kernel names it
// records; ok is false for strings not produced by downgradeEntry.
func ParseDowngrade(entry string) (from, to string, ok bool) {
	for i, r := range entry {
		if r == '→' {
			from = entry[:i]
			rest := entry[i+len("→"):]
			for j := 0; j < len(rest); j++ {
				if rest[j] == ':' {
					return from, rest[:j], from != "" && j > 0
				}
			}
			return "", "", false
		}
	}
	return "", "", false
}

// estDuration converts a cell count and rate to a wall-clock prediction,
// saturating at the maximum Duration.
func estDuration(cells uint64, mcellsPerSec float64) time.Duration {
	if mcellsPerSec <= 0 {
		return 0
	}
	ns := float64(cells) / (mcellsPerSec * 1e6) * 1e9
	if ns >= float64(math.MaxInt64) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(ns)
}

// fmtBytes renders a byte count with a binary unit suffix for downgrade
// entries and errors.
func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}
