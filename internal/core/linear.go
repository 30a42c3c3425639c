package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/alignment"
	"repro/internal/mat"
	"repro/internal/pairwise"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/wavefront"
)

// smallVolume is the sub-lattice size below which the Hirschberg recursion
// switches to the full-matrix aligner; the switch trades a little memory
// for avoiding deep recursions over trivial boxes.
const smallVolume = 1 << 15

// derivePairScheme builds the two-sequence scheme equivalent to the
// three-way objective when one sequence is exhausted: each remaining column
// (gap, y, z) scores sub(y,z) + 2·gapExtend if both residues are present
// and 2·gapExtend if only one is, so the induced pairwise problem uses
// sub' = sub + 2·ge and gap' = 2·ge.
func derivePairScheme(sch *scoring.Scheme) *scoring.Scheme {
	ge2 := 2 * sch.GapExtend()
	d, err := sch.MapSub(sch.Name()+"+pair", func(v mat.Score) mat.Score { return v + ge2 }, 0, ge2)
	if err != nil {
		panic("core: derivePairScheme: " + err.Error()) // impossible: gaps ≤ 0
	}
	return d
}

// pairMoveTable maps a pairwise op to a three-way move given which sequence
// is exhausted (0 = A absent, 1 = B absent, 2 = C absent).
var pairMoveTable = [3][3]alignment.Move{
	{alignment.MoveGXX, alignment.MoveGXG, alignment.MoveGGX}, // aligning B with C
	{alignment.MoveXGX, alignment.MoveXGG, alignment.MoveGGX}, // aligning A with C
	{alignment.MoveXXG, alignment.MoveXGG, alignment.MoveGXG}, // aligning A with B
}

func pairMoves(ops []pairwise.Op, absent int) []alignment.Move {
	out := make([]alignment.Move, len(ops))
	for i, op := range ops {
		out[i] = pairMoveTable[absent][op]
	}
	return out
}

// fillPlaneRangeI0 fills the i == 0 plane portion, where only the in-plane
// moves GXX, GXG, GGX apply.
func fillPlaneRangeI0(cur *mat.Plane, prof *pairProfile, ge2 mat.Score, cb []int8, sj, sk wavefront.Span) {
	for j := sj.Lo; j < sj.Hi; j++ {
		curRow := cur.Row(j)
		if j == 0 {
			k := sk.Lo
			if k == 0 {
				curRow[0] = 0
				k = 1
			}
			for ; k < sk.Hi; k++ {
				curRow[k] = curRow[k-1] + ge2 // GGX chain
			}
			continue
		}
		prevRow := cur.Row(j - 1)
		bcRow := prof.Row(cb[j-1])
		k := sk.Lo
		if k == 0 {
			curRow[0] = prevRow[0] + ge2 // GXG
			k = 1
		}
		for ; k < sk.Hi; k++ {
			curRow[k] = max(prevRow[k-1]+bcRow[k], prevRow[k], curRow[k-1]) + ge2
		}
	}
}

// planeSweep runs the forward DP over all of A and returns the final
// (len(cb)+1)×(len(cc)+1) plane: out[j][k] is the optimal score of aligning
// all of ca with cb[:j] and cc[:k]. With workers > 1 each plane is computed
// by a 2D blocked wavefront. The context is polled at every plane boundary
// (and per block inside parallel sweeps).
// planeSweep's working planes come from the mat arena; the returned final
// plane must be released with mat.PutPlane by the caller.
func planeSweep(ctx context.Context, ca, cb, cc []int8, sch *scoring.Scheme, workers, tj, tk int) (*mat.Plane, error) {
	m, p := len(cb), len(cc)
	prev := mat.GetPlane(m+1, p+1)
	cur := mat.GetPlane(m+1, p+1)
	prof := newPairProfile(cc, sch)
	defer prof.release()
	var lv laneVec
	initLaneVec(&lv, ca, cb, cc, sch, 2*sch.GapExtend())
	var sj, sk []wavefront.Span
	if workers > 1 {
		// The partitions are only needed by the blocked 2D wavefront;
		// sequential sweeps skip the two slice allocations per call —
		// the Hirschberg recursion makes two planeSweep calls per node.
		sj = wavefront.Partition(m+1, tj)
		sk = wavefront.Partition(p+1, tk)
	}
	sweep := func(dst, src *mat.Plane, ai int8) error {
		if workers <= 1 {
			fillPlaneRangePacked(dst, src, ai, cb, sch, prof, wavefront.Span{Lo: 0, Hi: m + 1}, wavefront.Span{Lo: 0, Hi: p + 1}, &lv)
			return nil
		}
		return wavefront.Run2DContext(ctx, len(sj), len(sk), workers, func(bj, bk int) {
			blockLV := lv // private copy: the argument block is scratch state
			fillPlaneRangePacked(dst, src, ai, cb, sch, prof, sj[bj], sk[bk], &blockLV)
		})
	}
	fail := func(err error) (*mat.Plane, error) {
		mat.PutPlane(prev)
		mat.PutPlane(cur)
		return nil, err
	}
	if err := checkCtx(ctx); err != nil {
		return fail(err)
	}
	if err := sweep(prev, nil, 0); err != nil { // the i == 0 plane
		return fail(err)
	}
	for i := 1; i <= len(ca); i++ {
		if err := checkCtx(ctx); err != nil {
			return fail(err)
		}
		if err := sweep(cur, prev, ca[i-1]); err != nil {
			return fail(err)
		}
		prev, cur = cur, prev
	}
	mat.PutPlane(cur)
	return prev, nil
}

// hctx carries the recursion-invariant state of a Hirschberg run.
type hctx struct {
	sch     *scoring.Scheme
	derived *scoring.Scheme
	workers int
	tj, tk  int // plane-sweep tile edges
	// spawn is the remaining budget of concurrent recursive branches; it
	// bounds goroutine fan-out without a global queue.
	spawn atomic.Int32
}

// fullMoves solves a sub-box exactly with the full-matrix DP, drawing its
// lattice and score tables from the arena — in the Hirschberg recursion
// every leaf box reuses the buffers of earlier leaves. The leaf runs the
// same lane-packed fill as AlignParallel, so its lattice — and therefore
// its preference-ordered traceback — is the full kernel's.
func fullMoves(ca, cb, cc []int8, sch *scoring.Scheme) ([]alignment.Move, error) {
	st := newScoreTables(ca, cb, cc, sch)
	defer st.release()
	t := mat.GetTensor3(len(ca)+1, len(cb)+1, len(cc)+1)
	defer mat.PutTensor3(t)
	ge2 := 2 * sch.GapExtend()
	var lv laneVec
	initLaneVec(&lv, ca, cb, cc, sch, ge2)
	fillRangePacked(t, st, ge2,
		wavefront.Span{Lo: 0, Hi: len(ca) + 1},
		wavefront.Span{Lo: 0, Hi: len(cb) + 1},
		wavefront.Span{Lo: 0, Hi: len(cc) + 1}, &lv)
	return tracebackTensor(t, ca, cb, cc, sch)
}

func (h *hctx) rec(ctx context.Context, ca, cb, cc []int8) ([]alignment.Move, error) {
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}
	switch {
	case len(ca) == 0:
		return pairMoves(pairwise.Hirschberg(cb, cc, h.derived).Ops, 0), nil
	case len(cb) == 0:
		return pairMoves(pairwise.Hirschberg(ca, cc, h.derived).Ops, 1), nil
	case len(cc) == 0:
		return pairMoves(pairwise.Hirschberg(ca, cb, h.derived).Ops, 2), nil
	case len(ca) == 1 || (len(ca)+1)*(len(cb)+1)*(len(cc)+1) <= smallVolume:
		// A single A-residue cannot be split; the box is also small enough
		// (≤ 2 planes when len(ca) == 1) that full DP stays within the
		// linear-space budget.
		return fullMoves(ca, cb, cc, h.sch)
	}

	mid := len(ca) / 2
	// The backward sweep reads the reversed sequences; the reversed copies
	// come from the code arena so the recursion reuses a few buffers instead
	// of allocating three per node.
	rca, rcb, rcc := reverseCodesArena(ca[mid:]), reverseCodesArena(cb), reverseCodesArena(cc)
	var fwd, bwdRev *mat.Plane
	var errF, errB error
	if h.workers > 1 {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			fwd, errF = planeSweep(ctx, ca[:mid], cb, cc, h.sch, h.workers, h.tj, h.tk)
		}()
		bwdRev, errB = planeSweep(ctx, rca, rcb, rcc, h.sch, h.workers, h.tj, h.tk)
		wg.Wait()
	} else {
		fwd, errF = planeSweep(ctx, ca[:mid], cb, cc, h.sch, 1, h.tj, h.tk)
		if errF == nil {
			bwdRev, errB = planeSweep(ctx, rca, rcb, rcc, h.sch, 1, h.tj, h.tk)
		}
	}
	mat.PutCodes(rca)
	mat.PutCodes(rcb)
	mat.PutCodes(rcc)
	if errF != nil {
		mat.PutPlane(fwd)
		mat.PutPlane(bwdRev)
		return nil, errF
	}
	if errB != nil {
		mat.PutPlane(fwd)
		mat.PutPlane(bwdRev)
		return nil, errB
	}

	m, p := len(cb), len(cc)
	bestJ, bestK := 0, 0
	bestV := fwd.At(0, 0) + bwdRev.At(m, p)
	for j := 0; j <= m; j++ {
		fRow := fwd.Row(j)
		bRow := bwdRev.Row(m - j)
		for k := 0; k <= p; k++ {
			if v := fRow[k] + bRow[p-k]; v > bestV {
				bestV, bestJ, bestK = v, j, k
			}
		}
	}
	mat.PutPlane(fwd)
	mat.PutPlane(bwdRev)

	var left, right []alignment.Move
	var errL, errR error
	if h.workers > 1 && h.spawn.Add(-1) >= 0 {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			left, errL = h.rec(ctx, ca[:mid], cb[:bestJ], cc[:bestK])
		}()
		right, errR = h.rec(ctx, ca[mid:], cb[bestJ:], cc[bestK:])
		wg.Wait()
	} else {
		left, errL = h.rec(ctx, ca[:mid], cb[:bestJ], cc[:bestK])
		if errL == nil {
			right, errR = h.rec(ctx, ca[mid:], cb[bestJ:], cc[bestK:])
		}
	}
	if errL != nil {
		return nil, errL
	}
	if errR != nil {
		return nil, errR
	}
	return append(left, right...), nil
}

// reverseCodesArena returns a reversed copy of s drawn from the code arena;
// release it with mat.PutCodes once the consuming sweep has returned.
func reverseCodesArena(s []int8) []int8 {
	out := mat.GetCodes(len(s))
	for i, c := range s {
		out[len(s)-1-i] = c
	}
	return out
}

// AlignParallelLinear computes the same optimum as AlignParallel with the
// 3D Hirschberg divide-and-conquer, using O(len(B)·len(C)) working memory.
// With Options.Workers > 1 every plane sweep runs a 2D blocked wavefront,
// the forward and backward sweeps of a split run concurrently, and
// independent sub-problems are solved concurrently; one worker runs the
// plain sequential recursion (the public "linear" alias). The context is
// polled at every plane boundary and recursion step.
func AlignParallelLinear(ctx context.Context, tr seq.Triple, sch *scoring.Scheme, opt Options) (*alignment.Alignment, error) {
	ca, cb, cc, err := prepare(tr, sch)
	if err != nil {
		return nil, err
	}
	if LinearBytes(tr) > opt.maxBytes() {
		return nil, fmt.Errorf("%w: need %d bytes, cap %d", ErrTooLarge, LinearBytes(tr), opt.maxBytes())
	}
	h := &hctx{
		sch:     sch,
		derived: derivePairScheme(sch),
		workers: opt.workers(),
	}
	// 8 bytes per cell: the sweep reads the previous plane and writes the
	// current one, two 4-byte lattice slabs per tile.
	h.tj, h.tk = opt.tile2D(len(cb)+1, len(cc)+1, 8)
	h.spawn.Store(int32(h.workers))
	moves, err := h.rec(ctx, ca, cb, cc)
	if err != nil {
		return nil, err
	}
	aln := &alignment.Alignment{Triple: tr, Moves: moves}
	if err := aln.Validate(); err != nil {
		return nil, fmt.Errorf("core: hirschberg produced inconsistent alignment: %w", err)
	}
	aln.Score = aln.SPScore(sch)
	return aln, nil
}
