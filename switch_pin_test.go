package repro

// Diff-pin for the planner refactor: a verbatim copy of the algorithm
// switch and auto-resolution heuristic that used to live in tsa.go, run
// side by side with the registry dispatch that replaced them. Every
// (Algorithm, Scheme) pair must select the same kernel and produce a
// byte-identical alignment; every auto scenario must resolve to the same
// algorithm the old heuristic chose. Delete this file only together with
// a deliberate change to selection semantics.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/msa"
	"repro/internal/plan"
)

// legacyResolveAlgorithm is the pre-planner auto heuristic — updated
// deliberately for three selection-semantics changes the planner made
// since: linear-gap primaries are the lane-packed kernels, the lattice
// estimate halves when the scheme's score bound admits 16-bit cells, and
// the sequential/parallel twins are folded into one blocked kernel each,
// so the parallel branch is the only one left.
func legacyResolveAlgorithm(tr Triple, sch *Scheme, opt Options) Algorithm {
	if opt.Algorithm != AlgorithmAuto {
		return opt.Algorithm
	}
	maxB := opt.MaxBytes
	if maxB <= 0 {
		maxB = core.DefaultMaxBytes
	}
	lattice := core.FullMatrixBytes(tr)
	if !sch.Affine() && core.Int16Safe(tr, sch) {
		lattice /= 2
	}
	switch {
	case sch.Affine() && 7*core.FullMatrixBytes(tr) <= maxB:
		return AlgorithmAffineParallel
	case sch.Affine():
		return AlgorithmAffineLinear
	case lattice <= maxB:
		return AlgorithmParallelPacked
	default:
		return AlgorithmParallelLinear
	}
}

// legacyRunAlgorithm is the pre-planner dispatch switch, verbatim except
// that the arms of the folded sequential twins call the blocked kernel
// that absorbed them.
func legacyRunAlgorithm(ctx context.Context, algo Algorithm, tr Triple, sch *Scheme, copt core.Options) (aln *Alignment, prune *PruneStats, err error) {
	switch algo {
	case AlgorithmFull:
		aln, err = core.AlignParallel(ctx, tr, sch, copt)
	case AlgorithmFullPacked:
		aln, err = core.AlignParallelPacked(ctx, tr, sch, copt)
	case AlgorithmParallel:
		aln, err = core.AlignParallel(ctx, tr, sch, copt)
	case AlgorithmParallelPacked:
		aln, err = core.AlignParallelPacked(ctx, tr, sch, copt)
	case AlgorithmLinear:
		aln, err = core.AlignParallelLinear(ctx, tr, sch, copt)
	case AlgorithmParallelLinear:
		aln, err = core.AlignParallelLinear(ctx, tr, sch, copt)
	case AlgorithmDiagonal:
		aln, err = core.AlignDiagonal(ctx, tr, sch, copt)
	case AlgorithmAffine:
		aln, err = core.AlignAffineParallel(ctx, tr, sch, copt)
	case AlgorithmAffineLinear:
		aln, err = core.AlignAffineLinear(ctx, tr, sch, copt)
	case AlgorithmAffineParallel:
		aln, err = core.AlignAffineParallel(ctx, tr, sch, copt)
	case AlgorithmPruned, AlgorithmPrunedParallel, AlgorithmBounded, AlgorithmAStar:
		var bound *Alignment
		bound, err = msa.CenterStarRefined(tr, sch)
		if err != nil {
			break
		}
		var st core.PruneStats
		switch algo {
		case AlgorithmPruned:
			aln, st, err = core.AlignPrunedParallel(ctx, tr, sch, copt, bound.Score)
		case AlgorithmPrunedParallel:
			aln, st, err = core.AlignPrunedParallel(ctx, tr, sch, copt, bound.Score)
		case AlgorithmBounded:
			aln, st, err = core.AlignBounded(ctx, tr, sch, copt, bound.Score)
		case AlgorithmAStar:
			aln, st, err = core.AlignAStar(ctx, tr, sch, copt, bound.Score)
		}
		if err == nil {
			prune = &st
		}
	case AlgorithmCenterStar:
		aln, err = msa.CenterStar(tr, sch)
	case AlgorithmCenterStarRefined:
		aln, err = msa.CenterStarRefined(tr, sch)
	case AlgorithmProgressive:
		aln, err = msa.Progressive(tr, sch)
	default:
		return nil, nil, fmt.Errorf("repro: unknown algorithm %q", algo)
	}
	return aln, prune, err
}

// pinTriples are the workloads the pin runs over: a DNA triple under the
// linear default and an affine override, and a protein triple under
// BLOSUM62 (affine).
func pinTriples(t *testing.T) []struct {
	name string
	tr   Triple
	sch  *Scheme
} {
	t.Helper()
	g := NewGenerator(DNA, 41)
	dna := g.RelatedTriple(14, MutationModel{SubstitutionRate: 0.2, InsertionRate: 0.05, DeletionRate: 0.05})
	dnaSch, err := DefaultScheme(DNA)
	if err != nil {
		t.Fatal(err)
	}
	dnaAff, err := dnaSch.WithGaps(-4, -1)
	if err != nil {
		t.Fatal(err)
	}
	gp := NewGenerator(Protein, 43)
	prot := gp.RelatedTriple(12, MutationModel{SubstitutionRate: 0.2, InsertionRate: 0.05, DeletionRate: 0.05})
	b62, ok := SchemeByName("blosum62")
	if !ok {
		t.Fatal("blosum62 scheme missing")
	}
	return []struct {
		name string
		tr   Triple
		sch  *Scheme
	}{
		{"dna-linear", dna, dnaSch},
		{"dna-affine", dna, dnaAff},
		{"protein-blosum62", prot, b62},
	}
}

// TestRegistryDispatchMatchesLegacySwitch runs every explicit algorithm
// under every pinned scheme through both the legacy switch and the
// planner-backed Align, asserting identical selection and byte-identical
// alignments.
func TestRegistryDispatchMatchesLegacySwitch(t *testing.T) {
	ctx := context.Background()
	for _, w := range pinTriples(t) {
		for _, algo := range Algorithms() {
			name := w.name + "/" + string(algo)
			opt := Options{Algorithm: algo, Scheme: w.sch}
			wantAln, wantPrune, wantErr := legacyRunAlgorithm(ctx, algo, w.tr, w.sch, core.Options{})
			res, err := Align(w.tr, opt)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s: err = %v, legacy err = %v", name, err, wantErr)
			}
			if err != nil {
				continue
			}
			if res.Algorithm != algo {
				t.Errorf("%s: ran %s, want the requested algorithm", name, res.Algorithm)
			}
			if res.Score != wantAln.Score {
				t.Errorf("%s: score %d, legacy %d", name, res.Score, wantAln.Score)
			}
			ra, rb, rc := res.Rows()
			la, lb, lc := wantAln.Rows()
			if ra != la || rb != lb || rc != lc {
				t.Errorf("%s: rows diverge from the legacy switch", name)
			}
			if (res.Prune != nil) != (wantPrune != nil) {
				t.Errorf("%s: prune stats presence diverges", name)
			} else if res.Prune != nil && *res.Prune != *wantPrune {
				t.Errorf("%s: prune stats %+v, legacy %+v", name, *res.Prune, *wantPrune)
			}
			if res.Plan == nil || res.Plan.Algorithm != string(algo) {
				t.Errorf("%s: Result.Plan missing or wrong: %+v", name, res.Plan)
			}
		}
	}
}

// TestPlannerAutoMatchesLegacyResolve pins automatic resolution — at many
// workers (the Align path) and at one (the wide-batch path) — to the
// legacy heuristic across memory-cap scenarios.
func TestPlannerAutoMatchesLegacyResolve(t *testing.T) {
	g := NewGenerator(DNA, 47)
	big := g.RelatedTriple(96, MutationModel{SubstitutionRate: 0.2})
	small := g.RelatedTriple(12, MutationModel{SubstitutionRate: 0.2})
	dnaSch, err := DefaultScheme(DNA)
	if err != nil {
		t.Fatal(err)
	}
	aff, err := dnaSch.WithGaps(-4, -1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		tr   Triple
		sch  *Scheme
		opt  Options
	}{
		{"small-linear", small, dnaSch, Options{}},
		{"small-affine", small, aff, Options{Scheme: aff}},
		{"big-capped", big, dnaSch, Options{MaxBytes: 1 << 20}},
		{"big-affine-capped", big, aff, Options{Scheme: aff, MaxBytes: 4 << 20}},
	}
	for _, tc := range cases {
		for _, workers := range []int{4, 1} {
			opt := tc.opt
			opt.Workers = workers
			want := legacyResolveAlgorithm(tc.tr, tc.sch, opt)
			pl, _, err := plan.Resolve(planRequest(tc.tr, tc.sch, opt))
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", tc.name, workers, err)
			}
			if pl.Algorithm != string(want) {
				t.Errorf("%s/workers=%d: planned %s, legacy resolved %s", tc.name, workers, pl.Algorithm, want)
			}
		}
	}
}
