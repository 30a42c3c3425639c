package core

import (
	"context"
	"fmt"

	"repro/internal/alignment"
	"repro/internal/mat"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/wavefront"
)

// AlignBounded computes the same optimum as AlignParallel while allocating
// only the Carrillo–Lipman admissible band: memory scales with the cells
// the bound admits, not with n·m·p, which is what lets exact alignment of
// similar triples run far past the full-lattice memory ceiling.
//
// The band is planned in two phases before any lattice byte is allocated:
//
//  1. Pairwise 2D bands. With optXY the unconstrained pairwise optima,
//     a cell (i, j, k) admissible under the three-way test
//     T_AB(i,j)+T_AC(i,k)+T_BC(j,k) ≥ L must satisfy each relaxed pairwise
//     test, e.g. T_AB(i,j) ≥ L − optAC − optBC. Scanning the through-plane
//     rows yields a j-hull per i and candidate k-intervals per (i, ·) and
//     (·, j) in O(nm + np + mp).
//  2. Lane refinement. Inside each candidate interval the exact three-way
//     test is applied from both ends, shrinking to the tightest contiguous
//     interval containing every admissible k. The stored band is therefore
//     a contiguous superset of the admissible set — and the admissible set
//     contains every cell of every optimal path, so the band DP computes
//     exact values along all optimal paths (out-of-band reads are NegInf,
//     the value a pruned cell holds in the dense pruned fill that the
//     test suite keeps as this kernel's oracle).
//
// The fill runs the 2D blocked wavefront over (i, j) — each (i, j) lane is
// filled atomically, so the k-1 dependency stays inside the lane — and is
// cancelled per block via the scheduler, like every parallel kernel here.
// Scores and moves are bit-identical to AlignParallel: band values never
// exceed the true DP values, so the preference-ordered traceback can never
// match a spurious predecessor.
//
// L defaults to the TrivialAlignment score; pass a tighter valid lower
// bound (any real alignment's SP score) to shrink the band. The MaxBytes
// admission counts what the kernel actually holds: the band (data + index),
// the three through-planes, and the pair-score tables.
func AlignBounded(ctx context.Context, tr seq.Triple, sch *scoring.Scheme, opt Options, lower ...mat.Score) (*alignment.Alignment, PruneStats, error) {
	ca, cb, cc, err := prepare(tr, sch)
	if err != nil {
		return nil, PruneStats{}, err
	}
	if err := checkCtx(ctx); err != nil {
		return nil, PruneStats{}, err
	}
	trivial, err := TrivialAlignment(tr, sch)
	if err != nil {
		return nil, PruneStats{}, err
	}
	bound := trivial.Score
	for _, l := range lower {
		if l > bound {
			bound = l
		}
	}
	bc := newBoundCtx(ca, cb, cc, sch, bound)
	defer bc.release()

	n, m, p := len(ca), len(cb), len(cc)
	stats := PruneStats{TotalCells: int64(n+1) * int64(m+1) * int64(p+1), LowerBound: bound}
	jLo, jHi, kLo, kHi, cells := planBand(bc, n, m, p)
	if err := checkCtx(ctx); err != nil {
		return nil, stats, err
	}

	tableBytes := mat.PlaneBytes(n+1, m+1) + mat.PlaneBytes(n+1, p+1) + mat.PlaneBytes(m+1, p+1)
	need := mat.BandTensor3Bytes(cells, int64(len(kLo)), int64(n+1)) + bc.planeBytes() + tableBytes
	if need > opt.maxBytes() {
		return nil, stats, fmt.Errorf("%w: need %d bytes (band %d cells), cap %d", ErrTooLarge, need, cells, opt.maxBytes())
	}

	st := newScoreTables(ca, cb, cc, sch)
	defer st.release()
	b := mat.NewBandTensor3(n+1, m+1, p+1, jLo, jHi, kLo, kHi)
	defer b.Release()
	stats.EvaluatedCells = b.Cells()
	ge2 := 2 * sch.GapExtend()

	edge := opt.BlockSize
	if edge <= 0 {
		edge = 2 * DefaultBlockSize
	}
	si := wavefront.Partition(n+1, edge)
	sj := wavefront.Partition(m+1, edge)
	if err := wavefront.Run2DContext(ctx, len(si), len(sj), opt.workers(), func(bi, bj int) {
		for i := si[bi].Lo; i < si[bi].Hi; i++ {
			lo := max(sj[bj].Lo, int(jLo[i]))
			hi := min(sj[bj].Hi, int(jHi[i]))
			for j := lo; j < hi; j++ {
				fillLaneBand(b, st, ge2, i, j)
			}
		}
	}); err != nil {
		return nil, stats, err
	}

	moves, err := tracebackBand(b, ca, cb, cc, sch)
	if err != nil {
		return nil, stats, fmt.Errorf("core: bounded traceback failed (is the lower bound valid?): %w", err)
	}
	aln := &alignment.Alignment{Triple: tr, Moves: moves, Score: b.At(n, m, p)}
	stats.Optimum = aln.Score
	return aln, stats, nil
}

// planBand derives the sparse band from the through-planes: per-i j-hulls,
// then per-lane k-intervals refined by the exact three-way test. The
// returned slices feed mat.NewBandTensor3 directly; cells is the stored
// cell count for memory admission.
func planBand(bc *boundCtx, n, m, p int) (jLo, jHi, kLo, kHi []int32, cells int64) {
	optAB := bc.tAB.At(0, 0)
	optAC := bc.tAC.At(0, 0)
	optBC := bc.tBC.At(0, 0)

	// Pairwise 2D bands: first/last index passing the relaxed per-pair test.
	jLo = make([]int32, n+1)
	jHi = make([]int32, n+1)
	thAB := bc.bound - optAC - optBC
	for i := 0; i <= n; i++ {
		row := bc.tAB.Row(i)
		lo, hi := scanInterval(row, thAB)
		jLo[i], jHi[i] = int32(lo), int32(hi)
	}
	kLoA := make([]int32, n+1)
	kHiA := make([]int32, n+1)
	thAC := bc.bound - optAB - optBC
	for i := 0; i <= n; i++ {
		lo, hi := scanInterval(bc.tAC.Row(i), thAC)
		kLoA[i], kHiA[i] = int32(lo), int32(hi)
	}
	kLoB := make([]int32, m+1)
	kHiB := make([]int32, m+1)
	thBC := bc.bound - optAB - optAC
	for j := 0; j <= m; j++ {
		lo, hi := scanInterval(bc.tBC.Row(j), thBC)
		kLoB[j], kHiB[j] = int32(lo), int32(hi)
	}

	// Lane refinement inside the candidate intervals.
	nLanes := 0
	for i := 0; i <= n; i++ {
		nLanes += int(jHi[i] - jLo[i])
	}
	kLo = make([]int32, 0, nLanes)
	kHi = make([]int32, 0, nLanes)
	for i := 0; i <= n; i++ {
		tabRow := bc.tAB.Row(i)
		tac := bc.tAC.Row(i)
		for j := int(jLo[i]); j < int(jHi[i]); j++ {
			tbc := bc.tBC.Row(j)
			th := bc.bound - tabRow[j]
			lo := max(int(kLoA[i]), int(kLoB[j]))
			hi := min(int(kHiA[i]), int(kHiB[j]))
			for lo < hi && tac[lo]+tbc[lo] < th {
				lo++
			}
			if lo >= hi {
				kLo = append(kLo, 0)
				kHi = append(kHi, 0)
				continue
			}
			for tac[hi-1]+tbc[hi-1] < th {
				hi--
			}
			kLo = append(kLo, int32(lo))
			kHi = append(kHi, int32(hi))
			cells += int64(hi - lo)
		}
	}
	return jLo, jHi, kLo, kHi, cells
}

// scanInterval returns the tightest [lo, hi) containing every index v of
// row with row[v] ≥ th; (0, 0) when none passes.
func scanInterval(row []mat.Score, th mat.Score) (lo, hi int) {
	hi = len(row)
	for lo < hi && row[lo] < th {
		lo++
	}
	if lo == hi {
		return 0, 0
	}
	for row[hi-1] < th {
		hi--
	}
	return lo, hi
}

// bandLaneOf is BandTensor3.Lane tolerating negative indices, so the lane
// fill can ask for i-1/j-1 predecessors unconditionally.
func bandLaneOf(b *mat.BandTensor3, i, j int) ([]mat.Score, int, bool) {
	if i < 0 || j < 0 {
		return nil, 0, false
	}
	return b.Lane(i, j)
}

// bandVal reads one cell from a lane slice fetched by bandLaneOf,
// returning NegInf outside the stored interval — the same sentinel a
// pruned cell holds in the dense pruned fill.
func bandVal(lane []mat.Score, lo int, ok bool, k int) mat.Score {
	if !ok || k < lo || k >= lo+len(lane) {
		return mat.NegInf
	}
	return lane[k-lo]
}

// fillLaneBand fills the stored k-interval of lane (i, j). Predecessor
// lanes are fetched once per lane; every per-cell read clamps to NegInf
// outside the band, so in-band values never exceed the true DP values
// (which is what keeps the preference-ordered traceback exact).
func fillLaneBand(b *mat.BandTensor3, st *scoreTables, ge2 mat.Score, i, j int) {
	cur, lo, ok := b.Lane(i, j)
	if !ok {
		return
	}
	hi := lo + len(cur)
	l11, o11, ok11 := bandLaneOf(b, i-1, j-1)
	l10, o10, ok10 := bandLaneOf(b, i-1, j)
	l01, o01, ok01 := bandLaneOf(b, i, j-1)
	var sAB mat.Score
	var acRow, bcRow []mat.Score
	if i > 0 {
		acRow = st.ac.Row(i)
	}
	if j > 0 {
		bcRow = st.bc.Row(j)
	}
	if i > 0 && j > 0 {
		sAB = st.ab.Row(i)[j]
	}
	prevCur := mat.NegInf // cur[k-1]; NegInf below the stored interval
	for k := lo; k < hi; k++ {
		best := mat.NegInf
		if k > 0 {
			if i > 0 && j > 0 {
				if v := bandVal(l11, o11, ok11, k-1) + sAB + acRow[k] + bcRow[k]; v > best {
					best = v // XXX
				}
			}
			if i > 0 {
				if v := bandVal(l10, o10, ok10, k-1) + acRow[k] + ge2; v > best {
					best = v // XGX
				}
			}
			if j > 0 {
				if v := bandVal(l01, o01, ok01, k-1) + bcRow[k] + ge2; v > best {
					best = v // GXX
				}
			}
			if v := prevCur + ge2; v > best {
				best = v // GGX
			}
		}
		if i > 0 && j > 0 {
			if v := bandVal(l11, o11, ok11, k) + sAB + ge2; v > best {
				best = v // XXG
			}
		}
		if i > 0 {
			if v := bandVal(l10, o10, ok10, k) + ge2; v > best {
				best = v // XGG
			}
		}
		if j > 0 {
			if v := bandVal(l01, o01, ok01, k) + ge2; v > best {
				best = v // GXG
			}
		}
		if i == 0 && j == 0 && k == 0 {
			best = 0
		}
		cur[k-lo] = best
		prevCur = best
	}
}

// tracebackBand is tracebackTensor over the sparse band: identical
// predecessor preference order, with out-of-band cells reading NegInf so
// they can never match.
func tracebackBand(b *mat.BandTensor3, ca, cb, cc []int8, sch *scoring.Scheme) ([]alignment.Move, error) {
	ge2 := 2 * sch.GapExtend()
	i, j, k := len(ca), len(cb), len(cc)
	moves := make([]alignment.Move, 0, i+j+k)
	for i > 0 || j > 0 || k > 0 {
		v := b.At(i, j, k)
		switch {
		case i > 0 && j > 0 && k > 0 &&
			v == b.At(i-1, j-1, k-1)+colXXX(sch, ca[i-1], cb[j-1], cc[k-1]):
			moves = append(moves, alignment.MoveXXX)
			i, j, k = i-1, j-1, k-1
		case i > 0 && j > 0 && v == b.At(i-1, j-1, k)+sch.Sub(ca[i-1], cb[j-1])+ge2:
			moves = append(moves, alignment.MoveXXG)
			i, j = i-1, j-1
		case i > 0 && k > 0 && v == b.At(i-1, j, k-1)+sch.Sub(ca[i-1], cc[k-1])+ge2:
			moves = append(moves, alignment.MoveXGX)
			i, k = i-1, k-1
		case j > 0 && k > 0 && v == b.At(i, j-1, k-1)+sch.Sub(cb[j-1], cc[k-1])+ge2:
			moves = append(moves, alignment.MoveGXX)
			j, k = j-1, k-1
		case i > 0 && v == b.At(i-1, j, k)+ge2:
			moves = append(moves, alignment.MoveXGG)
			i--
		case j > 0 && v == b.At(i, j-1, k)+ge2:
			moves = append(moves, alignment.MoveGXG)
			j--
		case k > 0 && v == b.At(i, j, k-1)+ge2:
			moves = append(moves, alignment.MoveGGX)
			k--
		default:
			return nil, fmt.Errorf("core: band traceback stuck at (%d,%d,%d)", i, j, k)
		}
	}
	reverseMoves(moves)
	return moves, nil
}
