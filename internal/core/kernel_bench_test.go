package core

import (
	"context"
	"testing"

	"repro/internal/mat"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/wavefront"
)

// Kernel micro-benchmarks: raw cell rates of the inner DP loops,
// independent of scheduling and traceback. Benchmarks whose names contain
// "Interior" run against prebuilt tables and buffers and must not allocate;
// the CI bench-smoke job enforces 0 allocs/op on them. The experiment-level
// benchmarks live in the repository root.

func benchCodes(n int) ([]int8, []int8, []int8) {
	g := seq.NewGenerator(seq.DNA, 4321)
	tr := g.RelatedTriple(n, seq.MutationModel{SubstitutionRate: 0.3})
	return tr.A.Codes(), tr.B.Codes(), tr.C.Codes()
}

func fullSpans(ca, cb, cc []int8) (si, sj, sk wavefront.Span) {
	return wavefront.Span{Lo: 0, Hi: len(ca) + 1},
		wavefront.Span{Lo: 0, Hi: len(cb) + 1},
		wavefront.Span{Lo: 0, Hi: len(cc) + 1}
}

// BenchmarkKernelFillRange measures the full sequential fill path: score
// tables and lane state built per iteration, lattice from the arena, then
// the peeled lane-packed kernel over the whole box.
func BenchmarkKernelFillRange(b *testing.B) {
	ca, cb, cc := benchCodes(64)
	sch := scoring.DNADefault()
	si, sj, sk := fullSpans(ca, cb, cc)
	cells := int64(len(ca)+1) * int64(len(cb)+1) * int64(len(cc)+1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := newScoreTables(ca, cb, cc, sch)
		t := mat.GetTensor3(len(ca)+1, len(cb)+1, len(cc)+1)
		var lv laneVec
		initLaneVec(&lv, ca, cb, cc, sch, 2*sch.GapExtend())
		fillRangePacked(t, st, 2*sch.GapExtend(), si, sj, sk, &lv)
		mat.PutTensor3(t)
		st.release()
	}
	b.StopTimer() // exclude the metric bookkeeping from the alloc count
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

// benchInteriorOf is the shared body of the width-variant interior
// benchmarks: tables, lane state and lattice prebuilt at cell width T, the
// lane-packed fill timed alone, so the loop body must not allocate.
func benchInteriorOf[T mat.Cell](b *testing.B) {
	ca, cb, cc := benchCodes(64)
	sch := scoring.DNADefault()
	st := newScoreTablesOf[T](ca, cb, cc, sch)
	defer st.release()
	t := mat.GetTensor3Of[T](len(ca)+1, len(cb)+1, len(cc)+1)
	defer mat.PutTensor3Of(t)
	ge2 := T(2 * sch.GapExtend())
	var lv laneVec
	initLaneVec(&lv, ca, cb, cc, sch, ge2)
	si, sj, sk := fullSpans(ca, cb, cc)
	cells := int64(len(ca)+1) * int64(len(cb)+1) * int64(len(cc)+1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fillRangePacked(t, st, ge2, si, sj, sk, &lv)
	}
	b.StopTimer() // exclude the metric bookkeeping from the alloc count
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkKernelFillRangePackedInterior measures the lane-packed interior
// at Score width.
func BenchmarkKernelFillRangePackedInterior(b *testing.B) {
	benchInteriorOf[mat.Score](b)
}

// BenchmarkKernelFillRangePackedInterior16 measures the lane-packed
// interior on an int16 lattice — the planner's preferred sequential kernel
// when the score bound allows narrowing.
func BenchmarkKernelFillRangePackedInterior16(b *testing.B) {
	benchInteriorOf[int16](b)
}

// BenchmarkKernelAffineInterior measures the 7-state transition kernel
// with prebuilt tables and lattices. The fill is idempotent, so the seeded
// lattices are reused across iterations.
func BenchmarkKernelAffineInterior(b *testing.B) {
	ca, cb, cc := benchCodes(32)
	sch, err := scoring.DNADefault().WithGaps(-4, -1)
	if err != nil {
		b.Fatal(err)
	}
	st := newScoreTables(ca, cb, cc, sch)
	defer st.release()
	open := newAffineOpenTable(sch)
	var d [7]*mat.Tensor3
	for s := 0; s < 7; s++ {
		d[s] = mat.GetTensor3(len(ca)+1, len(cb)+1, len(cc)+1)
		d[s].Fill(mat.NegInf)
		defer mat.PutTensor3(d[s])
	}
	d[6].Set(0, 0, 0, 0)
	si, sj, sk := fullSpans(ca, cb, cc)
	cells := int64(len(ca)+1) * int64(len(cb)+1) * int64(len(cc)+1) * 7
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fillRangeAffine(&d, st, ca, cb, cc, sch, &open, si, sj, sk)
	}
	b.StopTimer() // exclude the metric bookkeeping from the alloc count
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkKernelPlaneSweepInterior measures one packed plane fill with
// prebuilt planes, profile, and lane state — the steady-state inner work of
// the linear-space kernels. Covered by the CI zero-alloc gate.
func BenchmarkKernelPlaneSweepInterior(b *testing.B) {
	ca, cb, cc := benchCodes(64)
	sch := scoring.DNADefault()
	m, p := len(cb), len(cc)
	prev := mat.GetPlane(m+1, p+1)
	defer mat.PutPlane(prev)
	cur := mat.GetPlane(m+1, p+1)
	defer mat.PutPlane(cur)
	prof := newPairProfile(cc, sch)
	defer prof.release()
	var lv laneVec
	initLaneVec(&lv, ca, cb, cc, sch, 2*sch.GapExtend())
	sj := wavefront.Span{Lo: 0, Hi: m + 1}
	sk := wavefront.Span{Lo: 0, Hi: p + 1}
	fillPlaneRangePacked(prev, nil, 0, cb, sch, prof, sj, sk, &lv)
	cells := int64(m+1) * int64(p+1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fillPlaneRangePacked(cur, prev, ca[0], cb, sch, prof, sj, sk, &lv)
	}
	b.StopTimer() // exclude the metric bookkeeping from the alloc count
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

func BenchmarkKernelPlaneSweep(b *testing.B) {
	ca, cb, cc := benchCodes(64)
	sch := scoring.DNADefault()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		final, err := planeSweep(context.Background(), ca, cb, cc, sch, 1, DefaultBlockSize, DefaultBlockSize)
		if err != nil {
			b.Fatal(err)
		}
		mat.PutPlane(final)
	}
}

func BenchmarkKernelTraceback(b *testing.B) {
	ca, cb, cc := benchCodes(64)
	sch := scoring.DNADefault()
	st := newScoreTables(ca, cb, cc, sch)
	defer st.release()
	t := mat.GetTensor3(len(ca)+1, len(cb)+1, len(cc)+1)
	defer mat.PutTensor3(t)
	si, sj, sk := fullSpans(ca, cb, cc)
	var lv laneVec
	initLaneVec(&lv, ca, cb, cc, sch, 2*sch.GapExtend())
	fillRangePacked(t, st, 2*sch.GapExtend(), si, sj, sk, &lv)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tracebackTensor(t, ca, cb, cc, sch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelAffineFill(b *testing.B) {
	ca, cb, cc := benchCodes(32)
	sch, err := scoring.DNADefault().WithGaps(-4, -1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := affineDPMoves(context.Background(), ca, cb, cc, sch, 7, 0, Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
