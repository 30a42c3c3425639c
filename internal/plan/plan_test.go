package plan

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
)

// TestRegistryComplete pins the registry to the public algorithm list: 9
// kernels under 17 names (the folded sequential twins and the retired
// scalar, plane-synchronized and dense pruned kernels survive as aliases),
// each with a working estimator and a run function.
func TestRegistryComplete(t *testing.T) {
	ks := Kernels()
	if len(ks) != 9 {
		t.Fatalf("registry has %d kernels, want 9", len(ks))
	}
	names := 0
	for _, k := range ks {
		for _, name := range append([]string{k.Name}, k.Aliases...) {
			if got, ok := Lookup(name); !ok || got != k {
				t.Errorf("Lookup(%q) = %v, %v; want the %s spec", name, got, ok, k.Name)
			}
			names++
		}
	}
	if names != 17 {
		t.Fatalf("registry answers to %d names, want 17", names)
	}
	s := Shape{NA: 10, NB: 11, NC: 12}
	for _, k := range ks {
		if k.Run == nil {
			t.Errorf("%s: nil Run", k.Name)
		}
		if k.EstBytes == nil || k.EstBytes(s) == 0 {
			t.Errorf("%s: missing or zero EstBytes", k.Name)
		}
		if k.estCells(s) == 0 {
			t.Errorf("%s: zero estCells", k.Name)
		}
		if !k.Traceback {
			t.Errorf("%s: every registered kernel reconstructs rows", k.Name)
		}
		if _, ok := Calibration[k.RateKey]; !ok {
			t.Errorf("%s: rate key %q not in the calibration table", k.Name, k.RateKey)
		}
		if _, ok := Calibration[k.SoloRateKey]; !ok && k.SoloRateKey != "" {
			t.Errorf("%s: solo rate key %q not in the calibration table", k.Name, k.SoloRateKey)
		}
	}
}

// TestPlannerProperties is the testing/quick invariant suite over random
// shapes, gap models, and budgets:
//
//  1. an automatic request always lands on a kernel that supports the
//     scheme's gap model;
//  2. whenever a MaxMemoryBytes budget is set and planning succeeds, the
//     plan's EstBytes fits the budget;
//  3. the downgrade chain is monotone non-increasing in space class,
//     internally consistent (each step starts where the previous ended),
//     and ends at the planned kernel.
func TestPlannerProperties(t *testing.T) {
	prop := func(na, nb, nc uint16, budgetUnits uint32, affine, oneWorker, explicit bool) bool {
		shape := Shape{NA: int(na % 512), NB: int(nb % 512), NC: int(nc % 512)}
		gap := GapLinear
		if affine {
			gap = GapAffine
		}
		req := Request{Shape: shape, Gap: gap, Workers: 4}
		if oneWorker {
			req.Workers = 1
		}
		if explicit {
			req.Algorithm = "full"
		}
		// 0 means "no budget"; otherwise up to 256 MiB, biased small so the
		// ladder actually gets exercised.
		req.MaxMemoryBytes = int64(budgetUnits%(1<<22)) * 64

		pl, spec, err := Resolve(req)
		if err != nil {
			// Only an over-tight budget may fail, and it must say so in a
			// way 413 mapping can see.
			return req.MaxMemoryBytes > 0 && errors.Is(err, core.ErrTooLarge)
		}
		if named, ok := Lookup(pl.Algorithm); !ok || named != spec {
			return false
		}
		// (1) gap-model support for automatic selection.
		if !explicit && !spec.Supports(gap) {
			return false
		}
		// (2) budget respected on success.
		if req.MaxMemoryBytes > 0 && pl.EstBytes > uint64(req.MaxMemoryBytes) {
			return false
		}
		// (3) downgrade chain shape.
		prevTo := ""
		for _, entry := range pl.Downgrades {
			from, to, ok := ParseDowngrade(entry)
			if !ok {
				return false
			}
			fromSpec, ok1 := Lookup(from)
			toSpec, ok2 := Lookup(to)
			if !ok1 || !ok2 || toSpec.Space > fromSpec.Space {
				return false
			}
			if prevTo != "" && from != prevTo {
				return false
			}
			prevTo = to
		}
		if prevTo != "" && prevTo != pl.Algorithm {
			return false
		}
		// Degraded implies the plan landed on a heuristic.
		if pl.Degraded && spec.Exact {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestShapeOverflowSaturates is the regression test for the old int-typed
// lattice guard: adversarially long sequences must saturate the uint64
// estimates instead of wrapping around to a small number that would admit
// an impossible allocation. Plan-only — nothing is allocated.
func TestShapeOverflowSaturates(t *testing.T) {
	huge := Shape{NA: math.MaxInt32, NB: math.MaxInt32, NC: math.MaxInt32}
	if got := huge.Cells(); got != math.MaxUint64 {
		t.Fatalf("Cells() = %d, want saturation at MaxUint64", got)
	}
	// Three MaxInt32 pair products sum to ~3·2^62, which still fits uint64;
	// push one axis to MaxInt64 to force PairCells through its saturation.
	if got := (Shape{NA: math.MaxInt64, NB: math.MaxInt64, NC: math.MaxInt64}).PairCells(); got != math.MaxUint64 {
		t.Fatalf("PairCells() = %d, want saturation", got)
	}

	// Without a budget the plan must carry the saturated estimates.
	pl, _, err := Resolve(Request{Shape: huge})
	if err != nil {
		t.Fatalf("Resolve(huge): %v", err)
	}
	if pl.EstCells != math.MaxUint64 || pl.EstBytes != math.MaxUint64 {
		t.Fatalf("EstCells=%d EstBytes=%d, want saturated estimates", pl.EstCells, pl.EstBytes)
	}
	if pl.EstDuration != time.Duration(math.MaxInt64) {
		t.Fatalf("EstDuration=%v, want saturation at MaxInt64 ns", pl.EstDuration)
	}

	// With a budget, no kernel fits a saturated estimate: the planner must
	// reject with ErrTooLarge — never admit via wraparound.
	_, _, err = Resolve(Request{Shape: huge, MaxMemoryBytes: 1 << 30})
	if !errors.Is(err, core.ErrTooLarge) {
		t.Fatalf("Resolve(huge, budget) err = %v, want ErrTooLarge", err)
	}
}

// TestAutoMatchesLegacyHeuristic pins automatic selection to the decision
// table of the old resolveAlgorithm switch in tsa.go, updated deliberately
// for the lane-packed linear-gap primaries and for the folded twins: one
// blocked kernel per gap model at every worker count.
func TestAutoMatchesLegacyHeuristic(t *testing.T) {
	small := Shape{NA: 10, NB: 10, NC: 10}
	big := Shape{NA: 200, NB: 200, NC: 200} // full lattice ≈ 32 MiB
	cases := []struct {
		name     string
		shape    Shape
		gap      GapModel
		workers  int
		maxBytes int64
		want     string
	}{
		{"linear-parallel", small, GapLinear, 4, 0, "parallel-packed"},
		{"linear-sequential", small, GapLinear, 1, 0, "parallel-packed"},
		{"affine-parallel", small, GapAffine, 4, 0, "affine-parallel"},
		{"affine-sequential", small, GapAffine, 1, 0, "affine-parallel"},
		{"capped-linear-parallel", big, GapLinear, 4, 1 << 20, "parallel-linear"},
		{"capped-linear-sequential", big, GapLinear, 1, 1 << 20, "parallel-linear"},
		{"capped-affine", big, GapAffine, 4, 1 << 20, "affine-linear"},
		{"capped-affine-sequential", big, GapAffine, 1, 1 << 20, "affine-linear"},
	}
	for _, tc := range cases {
		pl, _, err := Resolve(Request{Shape: tc.shape, Gap: tc.gap, Workers: tc.workers, MaxBytes: tc.maxBytes})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if pl.Algorithm != tc.want {
			t.Errorf("%s: planned %s, want %s", tc.name, pl.Algorithm, tc.want)
		}
	}
}

// TestBudgetLadder walks the full downgrade ladder on an asymmetric shape
// where each rung has a distinct footprint: lattice (full) > planes
// (linear space) > pairwise (heuristic last resort).
func TestBudgetLadder(t *testing.T) {
	// A long A against short B and C keeps the three footprint classes far
	// apart: the sweep planes span only B×C while the pairwise matrices
	// pick up the long A edge twice.
	shape := Shape{NA: 4000, NB: 64, NC: 64}
	lattice := shape.Cells() * 4      // ≈ 67.6 MB
	planes := shape.PlaneCells() * 16 // ≈ 67.6 KB
	pairs := shape.PairCells() * 12   // ≈ 6.3 MB
	if !(pairs < lattice && planes < pairs) {
		t.Fatalf("shape does not order the ladder: lattice=%d pairs=%d planes=%d", lattice, pairs, planes)
	}

	// Budget between planes and pairs: the exact linear-space kernel fits.
	pl, _, err := Resolve(Request{Shape: shape, MaxMemoryBytes: int64(planes) + 1024})
	if err != nil {
		t.Fatalf("planes budget: %v", err)
	}
	if pl.Algorithm != "parallel-linear" || pl.Degraded {
		t.Fatalf("planes budget: planned %s (degraded=%v), want parallel-linear", pl.Algorithm, pl.Degraded)
	}
	if len(pl.Downgrades) == 0 {
		t.Fatalf("planes budget: no downgrade recorded")
	}

	// Budget below even the planes: nothing exact fits; an automatic
	// request bottoms out on the degraded heuristic only if the heuristic
	// fits, which it does not here — expect ErrTooLarge.
	_, _, err = Resolve(Request{Shape: shape, MaxMemoryBytes: 1024})
	if !errors.Is(err, core.ErrTooLarge) {
		t.Fatalf("tiny budget: err = %v, want ErrTooLarge", err)
	}
}

// TestLastResortHeuristic exercises the exact→heuristic last resort on a
// shape where the pairwise matrices are the only thing that fits: a short
// A against a large B×C face keeps the lattice big and makes the pairwise
// matrices slightly cheaper than the linear-space planes.
func TestLastResortHeuristic(t *testing.T) {
	shape := Shape{NA: 60, NB: 400, NC: 400}
	lattice := shape.Cells() * 4      // ≈ 39 MB
	planes := shape.PlaneCells() * 16 // ≈ 2.57 MB
	pairs := shape.PairCells() * 12   // ≈ 2.52 MB
	if !(pairs < planes && planes < lattice) {
		t.Fatalf("shape does not order pairs<planes<lattice: %d %d %d", pairs, planes, lattice)
	}
	budget := int64(pairs) + 1024
	pl, spec, err := Resolve(Request{Shape: shape, MaxMemoryBytes: budget})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if pl.Algorithm != lastResort || spec.Exact {
		t.Fatalf("planned %s (exact=%v), want the %s last resort", pl.Algorithm, spec.Exact, lastResort)
	}
	if !pl.Degraded {
		t.Fatal("last-resort plan not marked Degraded")
	}
	if len(pl.Downgrades) < 2 {
		t.Fatalf("expected the full ladder in Downgrades, got %v", pl.Downgrades)
	}
	if pl.EstBytes > uint64(budget) {
		t.Fatalf("EstBytes %d over budget %d", pl.EstBytes, budget)
	}
}

// TestExplicitAlgorithmIdentity pins explicit requests: without a budget
// the planner never substitutes, whatever the shape, and a plan echoes the
// name — canonical or alias — the request used.
func TestExplicitAlgorithmIdentity(t *testing.T) {
	shape := Shape{NA: 300, NB: 300, NC: 300}
	for _, k := range Kernels() {
		for _, name := range append([]string{k.Name}, k.Aliases...) {
			pl, spec, err := Resolve(Request{Shape: shape, Algorithm: name})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if pl.Algorithm != name || spec != k || len(pl.Downgrades) != 0 {
				t.Errorf("%s: planned %s (spec %s) with downgrades %v", name, pl.Algorithm, spec.Name, pl.Downgrades)
			}
		}
	}
	if _, _, err := Resolve(Request{Shape: shape, Algorithm: "nonsense"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestEvalFractionForIdentity pins the estimator's shape: monotone
// non-increasing in identity, clamped to [0.01, 1], and anchored at the
// calibrated sweep points.
func TestEvalFractionForIdentity(t *testing.T) {
	if got := EvalFractionForIdentity(0.3); got != 1 {
		t.Errorf("identity 0.3: frac %v, want 1 (unrelated data admits everything)", got)
	}
	if got := EvalFractionForIdentity(1.0); got != 0.01 {
		t.Errorf("identity 1.0: frac %v, want 0.01", got)
	}
	if got := EvalFractionForIdentity(math.NaN()); got != 1 {
		t.Errorf("NaN identity: frac %v, want the conservative 1", got)
	}
	if got := EvalFractionForIdentity(0.8); got != 0.25 {
		t.Errorf("identity 0.8: frac %v, want the anchored 0.25", got)
	}
	prev := math.Inf(1)
	for id := 0.0; id <= 1.5; id += 0.01 {
		f := EvalFractionForIdentity(id)
		if f < 0.01 || f > 1 {
			t.Fatalf("identity %.2f: frac %v out of [0.01, 1]", id, f)
		}
		if f > prev {
			t.Fatalf("identity %.2f: frac %v > %v — not monotone non-increasing", id, f, prev)
		}
		prev = f
	}
}

// TestBoundedAutoSelection covers the identity-probe selection paths:
// a thin predicted band wins the automatic slot outright, no prediction
// (or a short triple) keeps the legacy choice, and a sequential request
// with a very thin band prefers the A* frontier once the lattice kernels
// are priced out.
func TestBoundedAutoSelection(t *testing.T) {
	big := Shape{NA: 300, NB: 300, NC: 300}
	// Thin band, everything fits: bounded is predicted faster than the
	// packed lattice primary (0.05·cells at the bounded rate beats the full
	// lattice even at the packed kernels' higher per-cell rate).
	pl, spec, err := Resolve(Request{Shape: big, Workers: 4, EvalFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Algorithm != "bounded" {
		t.Fatalf("thin-band auto request planned %s, want bounded", pl.Algorithm)
	}
	if !spec.Exact || len(pl.Downgrades) != 0 || pl.Degraded {
		t.Fatalf("bounded plan not a clean exact selection: %+v", pl)
	}
	if pl.EstEvaluatedCells == 0 || pl.EstEvaluatedCells != pl.EstCells {
		t.Fatalf("EstEvaluatedCells %d / EstCells %d, want equal and non-zero",
			pl.EstEvaluatedCells, pl.EstCells)
	}
	want := fracCells(big, 0.05)
	if pl.EstCells != want {
		t.Fatalf("EstCells %d, want predicted evaluated count %d", pl.EstCells, want)
	}

	// No prediction: the legacy primary keeps the slot and no evaluated-cell
	// estimate is surfaced.
	pl, _, err = Resolve(Request{Shape: big, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Algorithm != "parallel-packed" || pl.EstEvaluatedCells != 0 {
		t.Fatalf("prediction-free request planned %s (est_evaluated=%d), want parallel-packed/0",
			pl.Algorithm, pl.EstEvaluatedCells)
	}

	// Short triple: band planning is pure overhead below MinBoundedLen.
	small := Shape{NA: 96, NB: 96, NC: 96}
	pl, _, err = Resolve(Request{Shape: small, Workers: 4, EvalFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Algorithm != "parallel-packed" {
		t.Fatalf("short triple planned %s, want parallel-packed", pl.Algorithm)
	}

	// One worker, very thin band, lattice priced out by the hard cap: the
	// A* frontier is the preferred downgrade.
	// (24 MiB cap: prices out the ~109 MB lattice while admitting the A*
	// node estimate — ~64 B per expanded cell at fraction 0.01 ≈ 20 MB.)
	pl, _, err = Resolve(Request{Shape: big, Workers: 1, EvalFraction: 0.01, MaxBytes: 24 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Algorithm != "astar" {
		t.Fatalf("sequential thin-band capped request planned %s, want astar", pl.Algorithm)
	}
	if len(pl.Downgrades) != 1 {
		t.Fatalf("expected one recorded downgrade, got %v", pl.Downgrades)
	}
	if from, to, ok := ParseDowngrade(pl.Downgrades[0]); !ok || from != "parallel-packed" || to != "astar" {
		t.Fatalf("downgrade entry %q, want parallel-packed→astar", pl.Downgrades[0])
	}
}

// TestBoundedBudgetLadderRung checks the soft-budget rung: a full-lattice
// kernel over budget lands on the Carrillo–Lipman band — still exact,
// still preference-ordered traceback — before falling to the sweep planes.
func TestBoundedBudgetLadderRung(t *testing.T) {
	shape := Shape{NA: 300, NB: 300, NC: 300} // lattice ≈ 109 MB
	budget := int64(32 << 20)
	pl, spec, err := Resolve(Request{
		Shape: shape, Algorithm: "full", EvalFraction: 0.12, MaxMemoryBytes: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Algorithm != "bounded" || !spec.Exact || pl.Degraded {
		t.Fatalf("ladder landed on %s (exact=%v degraded=%v), want bounded", pl.Algorithm, spec.Exact, pl.Degraded)
	}
	if len(pl.Downgrades) != 1 {
		t.Fatalf("downgrades %v, want exactly the full→bounded rung", pl.Downgrades)
	}
	if from, to, ok := ParseDowngrade(pl.Downgrades[0]); !ok || from != "full" || to != "bounded" {
		t.Fatalf("downgrade entry %q, want full→bounded", pl.Downgrades[0])
	}
	if pl.EstBytes > uint64(budget) {
		t.Fatalf("EstBytes %d over budget %d", pl.EstBytes, budget)
	}

	// Without the prediction the same request must skip the rung and fall
	// through to the sweep planes as before.
	pl, _, err = Resolve(Request{Shape: shape, Algorithm: "full", MaxMemoryBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Algorithm != "linear" {
		t.Fatalf("prediction-free ladder landed on %s, want linear", pl.Algorithm)
	}
}

// TestTileDims checks tile negotiation: blocked kernels carry tile
// dimensions (cubic under an explicit BlockSize), others none.
func TestTileDims(t *testing.T) {
	shape := Shape{NA: 200, NB: 200, NC: 200}
	pl, _, err := Resolve(Request{Shape: shape, Algorithm: "parallel"})
	if err != nil {
		t.Fatal(err)
	}
	if pl.TileDims[0] <= 0 || pl.TileDims[1] <= 0 || pl.TileDims[2] <= 0 {
		t.Fatalf("blocked kernel got no tile dims: %v", pl.TileDims)
	}
	pl, _, err = Resolve(Request{Shape: shape, Algorithm: "parallel", BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if pl.TileDims != [3]int{8, 8, 8} {
		t.Fatalf("BlockSize override ignored: %v", pl.TileDims)
	}
	pl, _, err = Resolve(Request{Shape: shape, Algorithm: "linear"})
	if err != nil {
		t.Fatal(err)
	}
	if pl.TileDims != [3]int{} {
		t.Fatalf("non-blocked kernel got tile dims: %v", pl.TileDims)
	}
}

// TestDowngradeNamesStable pins how a budget downgrade names its target
// for every public name: a one-worker name stays among one-worker names
// ("full→linear"), every other name steps to the target's kernel name
// ("parallel→parallel-linear", "diagonal→parallel-linear"). The retired
// dense pruned names resolve to the band, which has no one-worker name.
// A 2 MiB budget prices every 100³ lattice out and fits every plane.
func TestDowngradeNamesStable(t *testing.T) {
	want := map[string]string{
		"full":            "full→linear",
		"full-packed":     "full-packed→linear",
		"parallel":        "parallel→parallel-linear",
		"parallel-packed": "parallel-packed→parallel-linear",
		"diagonal":        "diagonal→parallel-linear",
		"pruned":          "pruned→parallel-linear",
		"pruned-parallel": "pruned-parallel→parallel-linear",
		"bounded":         "bounded→parallel-linear",
		"astar":           "astar→parallel-linear",
		"affine":          "affine→affine-linear",
		"affine-parallel": "affine-parallel→affine-linear",
		// Kernels whose footprint already fits do not downgrade.
		"linear": "", "parallel-linear": "", "affine-linear": "",
		"center-star": "", "center-star-refined": "", "progressive": "",
	}
	if len(want) != 17 {
		t.Fatalf("table covers %d names, want all 17", len(want))
	}
	for name, entry := range want {
		gap := GapLinear
		if strings.HasPrefix(name, "affine") {
			gap = GapAffine
		}
		if _, ok := Lookup(name); !ok {
			t.Fatalf("%s: not registered", name)
		}
		for _, w := range []int{1, 2} {
			pl, _, err := Resolve(Request{Shape: Shape{NA: 100, NB: 100, NC: 100}, Gap: gap,
				Algorithm: name, Workers: w, MaxMemoryBytes: 2 << 20})
			if err != nil {
				t.Fatalf("%s w=%d: %v", name, w, err)
			}
			var got string
			if len(pl.Downgrades) > 1 {
				t.Fatalf("%s w=%d: %d downgrades %q, want at most one", name, w, len(pl.Downgrades), pl.Downgrades)
			}
			if len(pl.Downgrades) == 1 {
				from, to, ok := ParseDowngrade(pl.Downgrades[0])
				if !ok {
					t.Fatalf("%s w=%d: unparsable downgrade %q", name, w, pl.Downgrades[0])
				}
				got = from + "→" + to
				if pl.Algorithm != to {
					t.Errorf("%s w=%d: plan algorithm %q, want the downgrade target %q", name, w, pl.Algorithm, to)
				}
			}
			if got != entry {
				t.Errorf("%s w=%d: downgrade %q, want %q", name, w, got, entry)
			}
		}
	}
}

// TestParseDowngrade round-trips the entry format.
func TestParseDowngrade(t *testing.T) {
	entry := downgradeEntry(kernels["parallel-packed"], kernels["parallel-linear"], Request{Shape: Shape{NA: 100, NB: 100, NC: 100}}, 1<<20)
	from, to, ok := ParseDowngrade(entry)
	if !ok || from != "parallel-packed" || to != "parallel-linear" {
		t.Fatalf("ParseDowngrade(%q) = %q, %q, %v", entry, from, to, ok)
	}
	if _, _, ok := ParseDowngrade("not a downgrade"); ok {
		t.Fatal("ParseDowngrade accepted garbage")
	}
}

// TestFoldedKernelPlans pins planning after the sequential/parallel twins
// were folded into one blocked kernel each: the resolved worker count is
// the only parallelism input. Automatic requests land on the canonical
// kernel of their gap model at any worker count; one worker gets the
// whole-plane tiling and the sequential calibration row, four workers the
// blocked row scaled by the parallel-efficiency model; alias names are
// echoed; and the A* frontier is the thin-band candidate exactly when one
// worker is resolved.
func TestFoldedKernelPlans(t *testing.T) {
	shape := Shape{NA: 96, NB: 120, NC: 140}
	for _, gap := range []GapModel{GapLinear, GapAffine} {
		want, solo, blocked := "parallel-packed", "full-packed", "parallel-packed"
		if gap == GapAffine {
			want, solo, blocked = "affine-parallel", "affine7", "affine7"
		}
		for _, w := range []int{1, 4} {
			pl, _, err := Resolve(Request{Shape: shape, Gap: gap, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if pl.Algorithm != want || pl.Workers != w {
				t.Fatalf("%s workers=%d: planned %s on %d workers, want %s on %d",
					gap, w, pl.Algorithm, pl.Workers, want, w)
			}
			rate := Calibration[solo]
			if w > 1 {
				rate = Calibration[blocked] * (1 + ParallelEfficiency*float64(w-1))
			}
			if pl.EstMcellsPerSec != rate {
				t.Errorf("%s workers=%d: EstMcellsPerSec %v, want %v", gap, w, pl.EstMcellsPerSec, rate)
			}
			if w == 1 && pl.TileDims != [3]int{1, shape.NB + 1, shape.NC + 1} {
				t.Errorf("%s one worker: tile %v, want the whole plane", gap, pl.TileDims)
			}
			if w > 1 && pl.TileDims[0] <= 1 && pl.TileDims[1] >= shape.NB+1 {
				t.Errorf("%s workers=%d: tile %v is not a blocked tiling", gap, w, pl.TileDims)
			}
		}
	}

	// Explicit aliases: echoed by name, planned on the canonical kernel's
	// tiling and rate at the resolved worker count.
	for alias, canonical := range map[string]string{
		"full": "parallel-packed", "full-packed": "parallel-packed", "parallel": "parallel-packed",
		"diagonal": "parallel-packed", "linear": "parallel-linear",
		"pruned": "bounded", "pruned-parallel": "bounded", "affine": "affine-parallel",
	} {
		for _, w := range []int{1, 4} {
			pl, spec, err := Resolve(Request{Shape: shape, Algorithm: alias, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			ref, _, err := Resolve(Request{Shape: shape, Algorithm: canonical, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if pl.Algorithm != alias || spec.Name != canonical {
				t.Errorf("%s workers=%d: planned %s on spec %s, want the echoed alias on %s",
					alias, w, pl.Algorithm, spec.Name, canonical)
			}
			if pl.Workers != ref.Workers || pl.TileDims != ref.TileDims || pl.EstMcellsPerSec != ref.EstMcellsPerSec {
				t.Errorf("%s workers=%d: plan %+v diverges from %s %+v", alias, w, pl, canonical, ref)
			}
		}
	}

	// The A* frontier is the thin-band candidate iff one worker is
	// resolved. The hard cap prices the lattice out, so the candidate is
	// what automatic selection lands on.
	big := Shape{NA: 300, NB: 300, NC: 300}
	for _, w := range []int{1, 2, 4} {
		pl, _, err := Resolve(Request{Shape: big, Workers: w, EvalFraction: 0.01, MaxBytes: 24 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if got := pl.Algorithm == "astar"; got != (w == 1) {
			t.Errorf("workers=%d: planned %s; A* must be chosen iff workers == 1", w, pl.Algorithm)
		}
	}
}
