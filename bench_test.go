package repro

// One benchmark per table (T*) and figure (F*) of the reconstructed
// evaluation; see DESIGN.md §6 for the experiment index and
// cmd/benchsuite for the paper-style tabular driver over the same
// workloads. Workloads are seeded, so every run measures identical inputs.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/msa"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/wavefront"
)

var benchSink int32

// benchTriple generates the canonical workload: three descendants of one
// ancestor of length n with the given substitution rate (plus light indels).
func benchTriple(seed int64, n int, subRate float64) seq.Triple {
	g := seq.NewGenerator(seq.DNA, seed)
	return g.RelatedTriple(n, seq.MutationModel{
		SubstitutionRate: subRate,
		InsertionRate:    0.02,
		DeletionRate:     0.02,
	})
}

func cells(tr seq.Triple) int64 {
	return int64(tr.A.Len()+1) * int64(tr.B.Len()+1) * int64(tr.C.Len()+1)
}

// BenchmarkT1SequentialRuntime — T1: sequential runtime and cell rate vs
// length, full-matrix vs linear-space.
func BenchmarkT1SequentialRuntime(b *testing.B) {
	for _, n := range []int{32, 64, 96, 128, 192} {
		tr := benchTriple(1000+int64(n), n, 0.3)
		b.Run(fmt.Sprintf("algo=full/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				aln, err := core.AlignParallel(context.Background(), tr, scoring.DNADefault(), core.Options{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				benchSink = aln.Score
			}
			b.ReportMetric(float64(cells(tr))*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
		})
		b.Run(fmt.Sprintf("algo=linear/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				aln, err := core.AlignParallelLinear(context.Background(), tr, scoring.DNADefault(), core.Options{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				benchSink = aln.Score
			}
			b.ReportMetric(float64(cells(tr))*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}

// BenchmarkT2Memory — T2: lattice bytes of the full matrix vs the
// linear-space planes (reported as metrics; the loop only exercises the
// accounting functions).
func BenchmarkT2Memory(b *testing.B) {
	for _, n := range []int{64, 128, 256, 384} {
		tr := benchTriple(2000+int64(n), n, 0.3)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var full, lin int64
			for i := 0; i < b.N; i++ {
				full = core.FullMatrixBytes(tr)
				lin = core.LinearBytes(tr)
			}
			b.ReportMetric(float64(full), "full_bytes")
			b.ReportMetric(float64(lin), "linear_bytes")
			b.ReportMetric(float64(full)/float64(lin), "ratio")
		})
	}
}

// benchWorkers is the worker sweep for the scaling experiments. It is
// deliberately independent of GOMAXPROCS: on a single-core host the
// measured wall-clock stays flat (workers time-share one CPU) while the
// simulated_speedup metric — the deterministic list-scheduling makespan of
// the exact schedule Run3D executes — reproduces the multi-processor
// figure; see DESIGN.md and EXPERIMENTS.md.
var benchWorkers = []int{1, 2, 4, 8}

// simulatedSpeedup predicts the speedup of the blocked wavefront on w
// processors from the block structure of the triple.
func simulatedSpeedup(tr seq.Triple, blockSize, w int) float64 {
	si := wavefront.Partition(tr.A.Len()+1, blockSize)
	sj := wavefront.Partition(tr.B.Len()+1, blockSize)
	sk := wavefront.Partition(tr.C.Len()+1, blockSize)
	cost := wavefront.SpanCost(si, sj, sk, 1)
	t1 := wavefront.Simulate(len(si), len(sj), len(sk), 1, cost)
	tw := wavefront.Simulate(len(si), len(sj), len(sk), w, cost)
	if tw == 0 {
		return 0
	}
	return t1 / tw
}

// BenchmarkF1Speedup — F1: parallel wavefront runtime vs worker count.
// Measured speedup is t(workers=1)/t(workers=w) across the sub-benchmarks;
// the simulated_speedup metric carries the hardware-independent curve.
func BenchmarkF1Speedup(b *testing.B) {
	tr := benchTriple(3000, 128, 0.3)
	for _, w := range benchWorkers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				aln, err := core.AlignParallel(context.Background(), tr, scoring.DNADefault(), core.Options{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				benchSink = aln.Score
			}
			b.ReportMetric(float64(cells(tr))*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
			b.ReportMetric(simulatedSpeedup(tr, core.DefaultBlockSize, w), "simulated_speedup")
		})
	}
}

// BenchmarkF2Efficiency — F2: as F1 but at several lengths, so efficiency
// (speedup/workers) can be compared across problem sizes.
func BenchmarkF2Efficiency(b *testing.B) {
	for _, n := range []int{96, 160} {
		tr := benchTriple(4000+int64(n), n, 0.3)
		for _, w := range benchWorkers {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					aln, err := core.AlignParallel(context.Background(), tr, scoring.DNADefault(), core.Options{Workers: w})
					if err != nil {
						b.Fatal(err)
					}
					benchSink = aln.Score
				}
				b.ReportMetric(simulatedSpeedup(tr, core.DefaultBlockSize, w)/float64(w), "simulated_efficiency")
			})
		}
	}
}

// BenchmarkF3BlockSize — F3: tile-size ablation at a fixed length and full
// parallelism.
func BenchmarkF3BlockSize(b *testing.B) {
	tr := benchTriple(5000, 128, 0.3)
	for _, bs := range []int{4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("block=%d", bs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				aln, err := core.AlignParallel(context.Background(), tr, scoring.DNADefault(), core.Options{BlockSize: bs})
				if err != nil {
					b.Fatal(err)
				}
				benchSink = aln.Score
			}
		})
	}
}

// BenchmarkT3Quality — T3: exact aligner vs heuristics; the sp_score
// metric carries the quality comparison, the timing carries the cost gap.
func BenchmarkT3Quality(b *testing.B) {
	for _, id := range []float64{0.5, 0.7, 0.9} {
		tr := benchTriple(6000+int64(id*100), 100, 1-id)
		runs := []struct {
			name string
			f    func() (int32, error)
		}{
			{"exact", func() (int32, error) {
				a, err := core.AlignParallel(context.Background(), tr, scoring.DNADefault(), core.Options{})
				if err != nil {
					return 0, err
				}
				return a.Score, nil
			}},
			{"center-star", func() (int32, error) {
				a, err := msa.CenterStar(tr, scoring.DNADefault())
				if err != nil {
					return 0, err
				}
				return a.Score, nil
			}},
			{"progressive", func() (int32, error) {
				a, err := msa.Progressive(tr, scoring.DNADefault())
				if err != nil {
					return 0, err
				}
				return a.Score, nil
			}},
		}
		for _, r := range runs {
			b.Run(fmt.Sprintf("identity=%.0f%%/algo=%s", id*100, r.name), func(b *testing.B) {
				var score int32
				for i := 0; i < b.N; i++ {
					s, err := r.f()
					if err != nil {
						b.Fatal(err)
					}
					score = s
				}
				benchSink = score
				b.ReportMetric(float64(score), "sp_score")
			})
		}
	}
}

// BenchmarkT4UnequalLengths — T4: constant-volume shapes; runtime should
// track n·m·p, so all sub-benchmarks land near the same time.
func BenchmarkT4UnequalLengths(b *testing.B) {
	shapes := [][3]int{{64, 64, 64}, {128, 64, 32}, {256, 64, 16}, {512, 32, 16}}
	for _, s := range shapes {
		g := seq.NewGenerator(seq.DNA, 8000+int64(s[0]))
		tr := g.TripleWithLengths(s[0], s[1], s[2], seq.Uniform(0.3))
		b.Run(fmt.Sprintf("shape=%dx%dx%d", s[0], s[1], s[2]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				aln, err := core.AlignParallel(context.Background(), tr, scoring.DNADefault(), core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				benchSink = aln.Score
			}
			b.ReportMetric(float64(cells(tr))*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}

// BenchmarkF5ParallelLinear — F5: the linear-space algorithm's scaling with
// workers at lengths where the full matrix would be uncomfortably large.
func BenchmarkF5ParallelLinear(b *testing.B) {
	tr := benchTriple(9000, 192, 0.3)
	for _, w := range benchWorkers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				aln, err := core.AlignParallelLinear(context.Background(), tr, scoring.DNADefault(), core.Options{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				benchSink = aln.Score
			}
			b.ReportMetric(float64(core.LinearBytes(tr)), "lattice_bytes")
		})
	}
}

// BenchmarkT5Affine — T5: overhead of the 7-state affine DP relative to
// the linear model at the same lengths.
func BenchmarkT5Affine(b *testing.B) {
	affSch, err := scoring.DNADefault().WithGaps(-4, -1)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{32, 64} {
		tr := benchTriple(10000+int64(n), n, 0.3)
		b.Run(fmt.Sprintf("model=linear/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				aln, err := core.AlignParallel(context.Background(), tr, scoring.DNADefault(), core.Options{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				benchSink = aln.Score
			}
		})
		b.Run(fmt.Sprintf("model=affine/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				aln, err := core.AlignAffineParallel(context.Background(), tr, affSch, core.Options{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				benchSink = aln.Score
			}
		})
		b.Run(fmt.Sprintf("model=affine-linear/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				aln, err := core.AlignAffineLinear(context.Background(), tr, affSch, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				benchSink = aln.Score
			}
		})
	}
}
