package core

import (
	"repro/internal/alignment"
	"repro/internal/mat"
	"repro/internal/scoring"
	"repro/internal/wavefront"
)

// fillRangeAffine evaluates all seven state lattices over one block in
// lexicographic order. Every predecessor cell a state transition reads lies
// in this block or in an axis-predecessor block, so the blocked wavefront
// schedule of Run3D is sufficient — the same argument as the linear-gap
// kernel, applied per state. Boundary cells (any zero index) go through the
// guarded affineCell path; interior lanes take affineLane, which hoists the
// 28 predecessor lanes once per (i, j) and runs the 7×7 transition with
// table reads only.
func fillRangeAffine(d *[7]*mat.Tensor3, st *scoreTables, ca, cb, cc []int8, sch *scoring.Scheme, open *affineOpenTable, si, sj, sk wavefront.Span) {
	if fpFill.Fire() {
		panic("faultpoint: core.fill.block")
	}
	go_ := sch.GapOpen()
	ge := sch.GapExtend()
	// Transposed open table: the interior loop scans predecessor states q
	// for a fixed successor s, so opT[s] is the row it streams.
	var opT [8][8]mat.Score
	for s := 1; s <= 7; s++ {
		for q := 1; q <= 7; q++ {
			opT[s][q] = open[q][s]
		}
	}
	if si.Lo == 0 {
		for j := sj.Lo; j < sj.Hi; j++ {
			for k := sk.Lo; k < sk.Hi; k++ {
				if j == 0 && k == 0 {
					continue // origin carries the boundary seed
				}
				affineCell(d, ca, cb, cc, sch, go_, 0, j, k)
			}
		}
	}
	for i := max(si.Lo, 1); i < si.Hi; i++ {
		abRow := st.ab.Row(i)
		acRow := st.ac.Row(i)
		if sj.Lo == 0 {
			for k := sk.Lo; k < sk.Hi; k++ {
				affineCell(d, ca, cb, cc, sch, go_, i, 0, k)
			}
		}
		for j := max(sj.Lo, 1); j < sj.Hi; j++ {
			if sk.Lo == 0 {
				affineCell(d, ca, cb, cc, sch, go_, i, j, 0)
			}
			affineLane(d, &opT, ge, abRow[j], acRow, st.bc.Row(j), i, j, max(sk.Lo, 1), sk.Hi)
		}
	}
}

// affineCell is the guarded per-cell transition, verbatim from the original
// kernel: used for lattice boundary cells where some predecessors fall
// outside the box.
func affineCell(d *[7]*mat.Tensor3, ca, cb, cc []int8, sch *scoring.Scheme, go_ mat.Score, i, j, k int) {
	var ai, bj, ck int8
	if i > 0 {
		ai = ca[i-1]
	}
	if j > 0 {
		bj = cb[j-1]
	}
	if k > 0 {
		ck = cc[k-1]
	}
	for s := alignment.Move(1); s <= 7; s++ {
		di, dj, dk := moveDelta(s)
		pi, pj, pk := i-di, j-dj, k-dk
		if pi < 0 || pj < 0 || pk < 0 {
			continue
		}
		best := mat.NegInf
		for q := alignment.Move(1); q <= 7; q++ {
			pv := d[q-1].At(pi, pj, pk)
			if pv <= mat.NegInf/2 {
				continue
			}
			if v := pv + mat.Score(openCount[q][s])*go_; v > best {
				best = v
			}
		}
		if best > mat.NegInf/2 {
			d[s-1].Set(i, j, k, best+colBaseAffine(sch, s, ai, bj, ck))
		}
	}
}

// affineLane fills cells (i, j, lo..hi-1), i, j ≥ 1, lo ≥ 1, of all seven
// state lattices. Unreachable predecessors hold NegInf and can join the max
// unconditionally: NegInf plus any open penalty stays below NegInf/2, so
// they neither win against a reachable value (all of which are tiny next to
// NegInf/2) nor pass the feasibility gate when everything is unreachable.
func affineLane(d *[7]*mat.Tensor3, opT *[8][8]mat.Score, ge, sAB mat.Score, acRow, bcRow []mat.Score, i, j, lo, hi int) {
	acRow = acRow[:hi]
	bcRow = bcRow[:hi]
	var l11, l10, l01, lcc [7][]mat.Score
	for q := 0; q < 7; q++ {
		l11[q] = d[q].Lane(i-1, j-1)
		l10[q] = d[q].Lane(i-1, j)
		l01[q] = d[q].Lane(i, j-1)
		lcc[q] = d[q].Lane(i, j)[:hi:hi]
	}
	// Predecessor lane group and k-offset per successor mask: consuming A
	// steps i, B steps j, C steps k.
	preds := [8]struct {
		lanes *[7][]mat.Score
		off   int
	}{
		1: {&l10, 0}, 2: {&l01, 0}, 3: {&l11, 0},
		4: {&lcc, -1}, 5: {&l10, -1}, 6: {&l01, -1}, 7: {&l11, -1},
	}
	// The dominating no-op reslice proves lo ≥ 0 to the compiler, which
	// drops the bounds checks on the profile reads in the k loop.
	_ = acRow[:lo]
	for k := lo; k < hi; k++ {
		base := affineBases(sAB, acRow[k], bcRow[k], ge)
		for s := 1; s <= 7; s++ {
			lanes := preds[s].lanes
			idx := k + preds[s].off
			op := &opT[s]
			best := lanes[0][idx] + op[1]
			for q := 1; q < 7; q++ {
				if v := lanes[q][idx] + op[q+1]; v > best {
					best = v
				}
			}
			if best > mat.NegInf/2 {
				lcc[s-1][k] = best + base[s]
			}
		}
	}
}
