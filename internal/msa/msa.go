// Package msa implements the heuristic three-sequence aligners the exact
// algorithm is evaluated against: center-star and progressive (profile)
// alignment. Both run in O(n²) time — orders of magnitude faster than the
// exact O(n³) dynamic program — but only approximate the optimal
// sum-of-pairs score. Their scores also serve as valid Carrillo–Lipman
// lower bounds for the bounded-search kernels (core.AlignBounded,
// core.AlignAStar).
package msa

import (
	"fmt"

	"repro/internal/alignment"
	"repro/internal/mat"
	"repro/internal/pairwise"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// pickCenter returns the index (0, 1, 2) of the sequence whose summed
// optimal pairwise score against the other two is largest, plus the three
// pairwise scores indexed by the absent sequence (0 -> B/C, 1 -> A/C,
// 2 -> A/B).
func pickCenter(codes [3][]int8, sch *scoring.Scheme) (int, [3]mat.Score) {
	var pairScore [3]mat.Score
	pairScore[0] = pairwise.GlobalScore(codes[1], codes[2], sch)
	pairScore[1] = pairwise.GlobalScore(codes[0], codes[2], sch)
	pairScore[2] = pairwise.GlobalScore(codes[0], codes[1], sch)
	// Sum for sequence i = the two pair scores it participates in.
	best, bestSum := 0, pairScore[1]+pairScore[2]
	if s := pairScore[0] + pairScore[2]; s > bestSum {
		best, bestSum = 1, s
	}
	if s := pairScore[0] + pairScore[1]; s > bestSum {
		best = 2
	}
	return best, pairScore
}

// CenterStar aligns the triple with the center-star heuristic: the center
// sequence is aligned pairwise with each satellite, and the two pairwise
// alignments are merged with the "once a gap, always a gap" rule.
func CenterStar(tr seq.Triple, sch *scoring.Scheme) (*alignment.Alignment, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	codes := [3][]int8{tr.A.Codes(), tr.B.Codes(), tr.C.Codes()}
	center, _ := pickCenter(codes, sch)
	sat1, sat2 := (center+1)%3, (center+2)%3
	aln1 := pairwise.Global(codes[center], codes[sat1], sch)
	aln2 := pairwise.Global(codes[center], codes[sat2], sch)
	moves := mergeStar(aln1.Ops, aln2.Ops, center, sat1, sat2)
	aln := &alignment.Alignment{Triple: tr, Moves: moves}
	if err := aln.Validate(); err != nil {
		return nil, fmt.Errorf("msa: center-star produced inconsistent alignment: %w", err)
	}
	aln.Score = aln.SPScore(sch)
	return aln, nil
}

// mergeStar merges two center-vs-satellite pairwise alignments into a
// three-way move list. Both op lists traverse the center sequence; columns
// where a satellite inserts relative to the center (OpB) become columns
// gapped in the center and the other satellite.
func mergeStar(ops1, ops2 []pairwise.Op, center, sat1, sat2 int) []alignment.Move {
	bit := func(idx int) alignment.Move {
		switch idx {
		case 0:
			return alignment.ConsumeA
		case 1:
			return alignment.ConsumeB
		default:
			return alignment.ConsumeC
		}
	}
	cBit, s1Bit, s2Bit := bit(center), bit(sat1), bit(sat2)
	var moves []alignment.Move
	i, j := 0, 0
	for i < len(ops1) || j < len(ops2) {
		switch {
		case i < len(ops1) && ops1[i] == pairwise.OpB:
			moves = append(moves, s1Bit)
			i++
		case j < len(ops2) && ops2[j] == pairwise.OpB:
			moves = append(moves, s2Bit)
			j++
		default:
			// Both alignments consume the center here.
			m := cBit
			if ops1[i] == pairwise.OpBoth {
				m |= s1Bit
			}
			if ops2[j] == pairwise.OpBoth {
				m |= s2Bit
			}
			moves = append(moves, m)
			i++
			j++
		}
	}
	return moves
}

// Progressive aligns the triple progressively: the closest pair (by
// optimal pairwise score) is aligned first, then the third sequence is
// aligned against the resulting two-row profile with a profile-aware
// dynamic program.
func Progressive(tr seq.Triple, sch *scoring.Scheme) (*alignment.Alignment, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	codes := [3][]int8{tr.A.Codes(), tr.B.Codes(), tr.C.Codes()}
	// The "outsider" is the sequence not in the closest pair; pairScore is
	// indexed by the absent sequence, so the best pair corresponds to the
	// largest entry.
	_, pairScore := pickCenter(codes, sch)
	outsider := 0
	for i := 1; i < 3; i++ {
		if pairScore[i] > pairScore[outsider] {
			outsider = i
		}
	}
	p, q := (outsider+1)%3, (outsider+2)%3
	if p > q {
		p, q = q, p
	}
	pairAln := pairwise.Global(codes[p], codes[q], sch)

	// Profile columns as residue-code pairs (scoring.Gap for gaps).
	type profCol struct{ x, y int8 }
	prof := make([]profCol, 0, len(pairAln.Ops))
	pi, qi := 0, 0
	for _, op := range pairAln.Ops {
		col := profCol{scoring.Gap, scoring.Gap}
		if op != pairwise.OpB {
			col.x = codes[p][pi]
			pi++
		}
		if op != pairwise.OpA {
			col.y = codes[q][qi]
			qi++
		}
		prof = append(prof, col)
	}

	// NW of the outsider against the profile. Cross-pair scores only: the
	// within-pair contribution is fixed by pairAln.
	r := codes[outsider]
	n, m := len(r), len(prof)
	f := mat.NewPlane(n+1, m+1)
	matchCost := func(ri int8, c profCol) mat.Score {
		return sch.Pair(ri, c.x) + sch.Pair(ri, c.y)
	}
	gapRCost := func(c profCol) mat.Score {
		return sch.Pair(scoring.Gap, c.x) + sch.Pair(scoring.Gap, c.y)
	}
	gapColCost := 2 * sch.GapExtend() // outsider residue vs two gaps
	for j := 1; j <= m; j++ {
		f.Set(0, j, f.At(0, j-1)+gapRCost(prof[j-1]))
	}
	for i := 1; i <= n; i++ {
		f.Set(i, 0, f.At(i-1, 0)+gapColCost)
		for j := 1; j <= m; j++ {
			best := f.At(i-1, j-1) + matchCost(r[i-1], prof[j-1])
			if v := f.At(i-1, j) + gapColCost; v > best {
				best = v
			}
			if v := f.At(i, j-1) + gapRCost(prof[j-1]); v > best {
				best = v
			}
			f.Set(i, j, best)
		}
	}

	// Traceback into three-way moves.
	bit := [3]alignment.Move{alignment.ConsumeA, alignment.ConsumeB, alignment.ConsumeC}
	colMove := func(c profCol) alignment.Move {
		var mv alignment.Move
		if c.x != scoring.Gap {
			mv |= bit[p]
		}
		if c.y != scoring.Gap {
			mv |= bit[q]
		}
		return mv
	}
	var rev []alignment.Move
	i, j := n, m
	for i > 0 || j > 0 {
		v := f.At(i, j)
		switch {
		case i > 0 && j > 0 && v == f.At(i-1, j-1)+matchCost(r[i-1], prof[j-1]):
			rev = append(rev, colMove(prof[j-1])|bit[outsider])
			i, j = i-1, j-1
		case i > 0 && v == f.At(i-1, j)+gapColCost:
			rev = append(rev, bit[outsider])
			i--
		case j > 0 && v == f.At(i, j-1)+gapRCost(prof[j-1]):
			rev = append(rev, colMove(prof[j-1]))
			j--
		default:
			return nil, fmt.Errorf("msa: profile traceback stuck at (%d,%d)", i, j)
		}
	}
	moves := make([]alignment.Move, len(rev))
	for idx := range rev {
		moves[idx] = rev[len(rev)-1-idx]
	}
	aln := &alignment.Alignment{Triple: tr, Moves: moves}
	if err := aln.Validate(); err != nil {
		return nil, fmt.Errorf("msa: progressive produced inconsistent alignment: %w", err)
	}
	aln.Score = aln.SPScore(sch)
	return aln, nil
}
