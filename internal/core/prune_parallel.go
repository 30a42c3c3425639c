package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/alignment"
	"repro/internal/mat"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/wavefront"
)

// fillRangePruned is fillRange with per-cell admissibility: pruned cells
// are stored as NegInf without evaluating the recurrence. It returns the
// number of evaluated cells in the box. Like fillRange it peels boundary
// passes off a table-driven interior loop; unlike fillRange every max chain
// keeps the NegInf seed, because pruned predecessors hold NegInf and the
// original kernel clamped the best value there. Admissibility reads the
// three precomputed through-planes (boundCtx) — three loads per cell where
// the pre-change kernel summed six forward/backward planes.
func fillRangePruned(t *mat.Tensor3, st *scoreTables, bc *boundCtx, ge2 mat.Score, si, sj, sk wavefront.Span) int64 {
	var evaluated int64
	if si.Lo == 0 {
		evaluated += prunedBoundaryI0(t, st, bc, ge2, sj, sk)
	}
	for i := max(si.Lo, 1); i < si.Hi; i++ {
		abRow := st.ab.Row(i)
		acRow := st.ac.Row(i)
		tacRow := bc.tAC.Row(i)
		tabRow := bc.tAB.Row(i)
		if sj.Lo == 0 {
			evaluated += prunedBoundaryJ0(t, bc, ge2, i, acRow, tabRow[0], tacRow, sk)
		}
		for j := max(sj.Lo, 1); j < sj.Hi; j++ {
			abPart := tabRow[j]
			hi := sk.Hi
			sAB := abRow[j]
			ac := acRow[:hi]
			bcRow := st.bc.Row(j)[:hi]
			tac := tacRow[:hi]
			tbc := bc.tBC.Row(j)[:hi]
			cur := t.Lane(i, j)[:hi:hi]
			lane11 := t.Lane(i-1, j-1)[:hi]
			lane10 := t.Lane(i-1, j)[:hi]
			lane01 := t.Lane(i, j-1)[:hi]
			lo := sk.Lo
			if lo < 1 {
				if abPart+tac[0]+tbc[0] < bc.bound {
					cur[0] = mat.NegInf
				} else {
					evaluated++
					cur[0] = max(mat.NegInf, lane11[0]+sAB+ge2, lane10[0]+ge2, lane01[0]+ge2)
				}
				lo = 1
			}
			// The dominating no-op reslice proves lo ≥ 0 to the compiler,
			// which frees the admissibility test — the path taken for every
			// k — of bounds checks. Evaluated cells keep one check on the
			// first k-1 lane read; the rest piggyback on it.
			_ = tac[:lo]
			for k := lo; k < hi; k++ {
				if abPart+tac[k]+tbc[k] < bc.bound {
					cur[k] = mat.NegInf
					continue
				}
				evaluated++
				sac, sbc := ac[k], bcRow[k]
				cur[k] = max(
					mat.NegInf,
					lane11[k-1]+sAB+sac+sbc, // XXX
					lane10[k-1]+sac+ge2,     // XGX
					lane01[k-1]+sbc+ge2,     // GXX
					cur[k-1]+ge2,            // GGX
					lane11[k]+sAB+ge2,       // XXG
					lane10[k]+ge2,           // XGG
					lane01[k]+ge2,           // GXG
				)
			}
		}
	}
	return evaluated
}

// prunedBoundaryI0 fills the admissible cells of the i == 0 plane portion.
func prunedBoundaryI0(t *mat.Tensor3, st *scoreTables, bc *boundCtx, ge2 mat.Score, sj, sk wavefront.Span) int64 {
	var evaluated int64
	tacRow := bc.tAC.Row(0)
	tabRow := bc.tAB.Row(0)
	for j := sj.Lo; j < sj.Hi; j++ {
		cur := t.Lane(0, j)
		abPart := tabRow[j]
		tbc := bc.tBC.Row(j)
		admissible := func(k int) bool {
			return abPart+tacRow[k]+tbc[k] >= bc.bound
		}
		if j == 0 {
			k := sk.Lo
			if k == 0 {
				cur[0] = 0
				evaluated++
				k = 1
			}
			for ; k < sk.Hi; k++ {
				if !admissible(k) {
					cur[k] = mat.NegInf
					continue
				}
				evaluated++
				cur[k] = max(mat.NegInf, cur[k-1]+ge2) // GGX
			}
			continue
		}
		prev := t.Lane(0, j-1)
		bcRow := st.bc.Row(j)
		k := sk.Lo
		if k == 0 {
			if !admissible(0) {
				cur[0] = mat.NegInf
			} else {
				evaluated++
				cur[0] = max(mat.NegInf, prev[0]+ge2) // GXG
			}
			k = 1
		}
		for ; k < sk.Hi; k++ {
			if !admissible(k) {
				cur[k] = mat.NegInf
				continue
			}
			evaluated++
			cur[k] = max(mat.NegInf, prev[k-1]+bcRow[k]+ge2, cur[k-1]+ge2, prev[k]+ge2)
		}
	}
	return evaluated
}

// prunedBoundaryJ0 fills the admissible cells of the j == 0 row of plane
// i ≥ 1.
func prunedBoundaryJ0(t *mat.Tensor3, bc *boundCtx, ge2 mat.Score, i int, acRow []mat.Score, abPart mat.Score, tacRow []mat.Score, sk wavefront.Span) int64 {
	var evaluated int64
	cur := t.Lane(i, 0)
	prev := t.Lane(i-1, 0)
	tbc := bc.tBC.Row(0)
	admissible := func(k int) bool {
		return abPart+tacRow[k]+tbc[k] >= bc.bound
	}
	k := sk.Lo
	if k == 0 {
		if !admissible(0) {
			cur[0] = mat.NegInf
		} else {
			evaluated++
			cur[0] = max(mat.NegInf, prev[0]+ge2) // XGG
		}
		k = 1
	}
	for ; k < sk.Hi; k++ {
		if !admissible(k) {
			cur[k] = mat.NegInf
			continue
		}
		evaluated++
		cur[k] = max(mat.NegInf, prev[k-1]+acRow[k]+ge2, prev[k]+ge2, cur[k-1]+ge2)
	}
	return evaluated
}

// AlignPrunedParallel computes the same optimum as AlignParallel but
// evaluates only the Carrillo–Lipman admissible region: cell (i, j, k) is
// skipped when the sum of the three pairwise forward and backward
// projection bounds cannot reach the lower bound L. L defaults to the
// TrivialAlignment score; pass a tighter valid lower bound (any real
// alignment's SP score, e.g. from a heuristic) to prune more aggressively.
// Passing an L greater than the optimum is invalid and yields an error or a
// sub-optimal result. The admissible region is filled on the blocked
// wavefront — whole i-planes in order at one worker (the public "pruned"
// alias) — and the evaluated-cell count is the same at every worker count
// (the bound is deterministic; only the schedule differs).
func AlignPrunedParallel(ctx context.Context, tr seq.Triple, sch *scoring.Scheme, opt Options, lower ...mat.Score) (*alignment.Alignment, PruneStats, error) {
	ca, cb, cc, err := prepare(tr, sch)
	if err != nil {
		return nil, PruneStats{}, err
	}
	if err := checkCtx(ctx); err != nil {
		return nil, PruneStats{}, err
	}
	if FullMatrixBytes(tr) > opt.maxBytes() {
		return nil, PruneStats{}, fmt.Errorf("%w: need %d bytes, cap %d", ErrTooLarge, FullMatrixBytes(tr), opt.maxBytes())
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
	st := newScoreTables(ca, cb, cc, sch)
	defer st.release()
	t := mat.GetTensor3(n+1, m+1, p+1)
	defer mat.PutTensor3(t)
	ge2 := 2 * sch.GapExtend()
	ti, tj, tk := opt.tileDims(n+1, m+1, p+1, 4)
	si := wavefront.Partition(n+1, ti)
	sj := wavefront.Partition(m+1, tj)
	sk := wavefront.Partition(p+1, tk)
	var evaluated atomic.Int64
	stats := PruneStats{
		TotalCells: int64(n+1) * int64(m+1) * int64(p+1),
		LowerBound: bound,
	}
	if err := wavefront.Run3DContext(ctx, len(si), len(sj), len(sk), opt.workers(), func(bi, bj, bk int) {
		evaluated.Add(fillRangePruned(t, st, bc, ge2, si[bi], sj[bj], sk[bk]))
	}); err != nil {
		stats.EvaluatedCells = evaluated.Load()
		return nil, stats, err
	}
	stats.EvaluatedCells = evaluated.Load()
	moves, err := tracebackTensor(t, ca, cb, cc, sch)
	if err != nil {
		return nil, stats, fmt.Errorf("core: pruned traceback failed (is the lower bound valid?): %w", err)
	}
	aln := &alignment.Alignment{Triple: tr, Moves: moves, Score: t.At(n, m, p)}
	stats.Optimum = aln.Score
	return aln, stats, nil
}
