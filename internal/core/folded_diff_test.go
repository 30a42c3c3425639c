package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/alignment"
	"repro/internal/mat"
	"repro/internal/pairwise"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/wavefront"
)

// The differential suite for the blocked kernels that also serve the
// sequential algorithm names: at one worker their whole-plane tiling is the
// sequential fill. Every kernel, at every worker count, tiling and cell
// width, must reproduce the verbatim scalar oracles of reference_test.go
// byte for byte: the same score and the same moves.

// foldedShapes mixes degenerate boxes with lattices above smallVolume, so
// the linear-space kernel recurses at least one level.
var foldedShapes = [][3]int{{0, 5, 3}, {1, 7, 4}, {9, 3, 7}, {23, 17, 31}, {40, 36, 44}}

// foldedTriples are the random triples of foldedShapes over the scheme's
// alphabet, plus, for DNA, a low-complexity triple above smallVolume whose
// many co-optimal paths make every tie-break in a fill, traceback or
// split-point choice visible in the moves.
func foldedTriples(sch *scoring.Scheme, seed int64) []seq.Triple {
	var trs []seq.Triple
	for i, shape := range foldedShapes {
		trs = append(trs, diffTriple(sch, seed+int64(i), shape[0], shape[1], shape[2]))
	}
	if sch.Alphabet() == seq.DNA {
		trs = append(trs, seq.Triple{
			A: seq.MustNew("A", strings.Repeat("AC", 21), seq.DNA),
			B: seq.MustNew("B", strings.Repeat("CA", 19), seq.DNA),
			C: seq.MustNew("C", strings.Repeat("AAC", 15), seq.DNA),
		})
	}
	return trs
}

// refWholeBox spans an entire ni×nj×nk lattice.
func refWholeBox(ni, nj, nk int) (si, sj, sk wavefront.Span) {
	return wavefront.Span{Lo: 0, Hi: ni}, wavefront.Span{Lo: 0, Hi: nj}, wavefront.Span{Lo: 0, Hi: nk}
}

// refFullAlign is the oracle for the full-lattice kernels: the verbatim
// scalar fill followed by the production traceback.
func refFullAlign(t *testing.T, ca, cb, cc []int8, sch *scoring.Scheme) ([]alignment.Move, mat.Score) {
	t.Helper()
	tt := mat.NewTensor3(len(ca)+1, len(cb)+1, len(cc)+1)
	si, sj, sk := refWholeBox(len(ca)+1, len(cb)+1, len(cc)+1)
	refFillRange(tt, ca, cb, cc, sch, si, sj, sk)
	moves, err := tracebackTensor(tt, ca, cb, cc, sch)
	if err != nil {
		t.Fatal(err)
	}
	return moves, tt.At(len(ca), len(cb), len(cc))
}

// refPrunedAlign is the oracle for the pruned kernel under the trivial
// lower bound: the verbatim six-plane admissibility fill and its evaluated
// cell count.
func refPrunedAlign(t *testing.T, tr seq.Triple, sch *scoring.Scheme) ([]alignment.Move, PruneStats) {
	t.Helper()
	ca, cb, cc := tr.A.Codes(), tr.B.Codes(), tr.C.Codes()
	trivial, err := TrivialAlignment(tr, sch)
	if err != nil {
		t.Fatal(err)
	}
	pc := newRefPruneCtx(ca, cb, cc, sch, trivial.Score)
	defer pc.release()
	tt := mat.NewTensor3(len(ca)+1, len(cb)+1, len(cc)+1)
	si, sj, sk := refWholeBox(len(ca)+1, len(cb)+1, len(cc)+1)
	st := PruneStats{
		TotalCells:     int64(len(ca)+1) * int64(len(cb)+1) * int64(len(cc)+1),
		EvaluatedCells: refFillRangePruned(tt, ca, cb, cc, sch, pc, si, sj, sk),
		LowerBound:     trivial.Score,
		Optimum:        tt.At(len(ca), len(cb), len(cc)),
	}
	moves, err := tracebackTensor(tt, ca, cb, cc, sch)
	if err != nil {
		t.Fatal(err)
	}
	return moves, st
}

// refSweep is the oracle plane sweep: the verbatim scalar plane fill over
// all of ca, returning the final (len(cb)+1)×(len(cc)+1) plane.
func refSweep(ca, cb, cc []int8, sch *scoring.Scheme) *mat.Plane {
	sj, sk := wavefront.Span{Lo: 0, Hi: len(cb) + 1}, wavefront.Span{Lo: 0, Hi: len(cc) + 1}
	prev := mat.NewPlane(len(cb)+1, len(cc)+1)
	refFillPlaneRange(prev, nil, 0, cb, cc, sch, sj, sk)
	for _, ai := range ca {
		cur := mat.NewPlane(len(cb)+1, len(cc)+1)
		refFillPlaneRange(cur, prev, ai, cb, cc, sch, sj, sk)
		prev = cur
	}
	return prev
}

func refReverse(s []int8) []int8 {
	out := make([]int8, len(s))
	for i, c := range s {
		out[len(s)-1-i] = c
	}
	return out
}

// refLinearMoves is the oracle for the linear-space kernel: the same
// midpoint divide-and-conquer — first strict maximum of the joined forward
// and backward planes, full-lattice leaves, pairwise edges when a sequence
// runs out — over the verbatim scalar fills.
func refLinearMoves(t *testing.T, ca, cb, cc []int8, sch *scoring.Scheme) []alignment.Move {
	t.Helper()
	switch {
	case len(ca) == 0:
		return pairMoves(pairwise.Hirschberg(cb, cc, derivePairScheme(sch)).Ops, 0)
	case len(cb) == 0:
		return pairMoves(pairwise.Hirschberg(ca, cc, derivePairScheme(sch)).Ops, 1)
	case len(cc) == 0:
		return pairMoves(pairwise.Hirschberg(ca, cb, derivePairScheme(sch)).Ops, 2)
	case len(ca) == 1 || (len(ca)+1)*(len(cb)+1)*(len(cc)+1) <= smallVolume:
		moves, _ := refFullAlign(t, ca, cb, cc, sch)
		return moves
	}
	mid := len(ca) / 2
	fwd := refSweep(ca[:mid], cb, cc, sch)
	bwd := refSweep(refReverse(ca[mid:]), refReverse(cb), refReverse(cc), sch)
	m, p := len(cb), len(cc)
	bestJ, bestK, bestV := 0, 0, fwd.At(0, 0)+bwd.At(m, p)
	for j := 0; j <= m; j++ {
		for k := 0; k <= p; k++ {
			if v := fwd.At(j, k) + bwd.At(m-j, p-k); v > bestV {
				bestV, bestJ, bestK = v, j, k
			}
		}
	}
	left := refLinearMoves(t, ca[:mid], cb[:bestJ], cc[:bestK], sch)
	return append(left, refLinearMoves(t, ca[mid:], cb[bestJ:], cc[bestK:], sch)...)
}

// foldedTilings are the tile choices each kernel runs under: the default
// (whole planes at one worker, adaptive blocks above), a small cubic
// override, and the multi-worker adaptive tiling pinned even at one worker.
func foldedTilings(ni, nj, nk, bytesPerCell int) map[string]Options {
	ti, tj, tk := AdaptiveTileDims(ni, nj, nk, 3, bytesPerCell)
	return map[string]Options{
		"default":    {},
		"block5":     {BlockSize: 5},
		"multi-tile": {TileDims: [3]int{ti, tj, tk}},
	}
}

func wantSameMoves(t *testing.T, what string, gotScore, wantScore mat.Score, got, want []alignment.Move) {
	t.Helper()
	if gotScore != wantScore {
		t.Fatalf("%s: score %d, oracle %d", what, gotScore, wantScore)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d moves, oracle %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: move %d = %v, oracle %v", what, i, got[i], want[i])
		}
	}
}

// TestFoldedKernelsMatchOracles runs the five blocked kernels behind the
// sequential names full, full-packed, linear, pruned and affine at one,
// two and three workers, under every tiling and (for the width-aware
// kernels) both cell widths, against the scalar oracles.
func TestFoldedKernelsMatchOracles(t *testing.T) {
	ctx := context.Background()
	linear := map[string]*scoring.Scheme{"dna": scoring.DNADefault()}
	prot, err := scoring.BLOSUM62().WithGaps(0, -2)
	if err != nil {
		t.Fatal(err)
	}
	linear["blosum62"] = prot
	for name, sch := range linear {
		for _, tr := range foldedTriples(sch, 21000) {
			ca, cb, cc := tr.A.Codes(), tr.B.Codes(), tr.C.Codes()
			fullMoves, fullScore := refFullAlign(t, ca, cb, cc, sch)
			linMoves := refLinearMoves(t, ca, cb, cc, sch)
			prunedMoves, prunedStats := refPrunedAlign(t, tr, sch)
			for tiling, base := range foldedTilings(len(ca)+1, len(cb)+1, len(cc)+1, 4) {
				for _, w := range []int{1, 2, 3} {
					opt := base
					opt.Workers = w
					tag := func(kernel string) string {
						return fmt.Sprintf("%s/%s/%s/%s/w=%d", name, kernel, tr.Describe(), tiling, w)
					}
					for _, width := range []int{16, 32} {
						wopt := opt
						wopt.CellWidth = width
						for kernel, run := range map[string]kernelFunc{"full": AlignParallel, "full-packed": AlignParallelPacked} {
							aln, err := run(ctx, tr, sch, wopt)
							if err != nil {
								t.Fatalf("%s: %v", tag(kernel), err)
							}
							wantSameMoves(t, tag(kernel), aln.Score, fullScore, aln.Moves, fullMoves)
						}
					}
					aln, err := AlignParallelLinear(ctx, tr, sch, opt)
					if err != nil {
						t.Fatalf("%s: %v", tag("linear"), err)
					}
					wantSameMoves(t, tag("linear"), aln.Score, fullScore, aln.Moves, linMoves)

					aln, st, err := AlignPrunedParallel(ctx, tr, sch, opt)
					if err != nil {
						t.Fatalf("%s: %v", tag("pruned"), err)
					}
					wantSameMoves(t, tag("pruned"), aln.Score, fullScore, aln.Moves, prunedMoves)
					if st != prunedStats {
						t.Fatalf("%s: prune stats %+v, oracle %+v", tag("pruned"), st, prunedStats)
					}
				}
			}
		}
	}

	for name, sch := range affineDiffSchemes(t) {
		for _, tr := range foldedTriples(sch, 22000) {
			ca, cb, cc := tr.A.Codes(), tr.B.Codes(), tr.C.Codes()
			want, wantScore, err := affineTraceback(refAffineFill(ca, cb, cc, sch, 7), ca, cb, cc, sch, 0)
			if err != nil {
				t.Fatal(err)
			}
			for tiling, base := range foldedTilings(len(ca)+1, len(cb)+1, len(cc)+1, 28) {
				for _, w := range []int{1, 2, 3} {
					opt := base
					opt.Workers = w
					aln, err := AlignAffineParallel(ctx, tr, sch, opt)
					what := fmt.Sprintf("%s/affine/%s/%s/w=%d", name, tr.Describe(), tiling, w)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					wantSameMoves(t, what, aln.Score, wantScore, aln.Moves, want)
				}
			}
		}
	}
}
