package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/seq"
)

func TestAlignDiagonalEqualsFull(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 12; trial++ {
		var tr seq.Triple
		if trial%2 == 0 {
			tr = randomTriple(rng, rng.Intn(25), rng.Intn(25), rng.Intn(25))
		} else {
			tr = relatedTriple(rng.Int63(), 8+rng.Intn(20), 0.2)
		}
		ref, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 7} {
			aln, err := AlignDiagonal(context.Background(), tr, dnaSch, Options{Workers: workers})
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
			}
			checkAlignment(t, aln, dnaSch)
			if aln.Score != ref.Score {
				t.Fatalf("trial %d workers=%d (%s): diagonal %d != full %d",
					trial, workers, tr.Describe(), aln.Score, ref.Score)
			}
		}
	}
}

func TestAlignDiagonalEmptyShapes(t *testing.T) {
	for _, s := range [][3]string{
		{"", "", ""}, {"ACGT", "", ""}, {"", "AC", "GT"}, {"A", "C", "G"},
	} {
		tr := dnaTriple(t, s[0], s[1], s[2])
		ref, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		aln, err := AlignDiagonal(context.Background(), tr, dnaSch, Options{Workers: 3})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if aln.Score != ref.Score {
			t.Fatalf("%v: diagonal %d != full %d", s, aln.Score, ref.Score)
		}
	}
}

func TestAlignDiagonalMemoryCap(t *testing.T) {
	tr := dnaTriple(t, "ACGTACGTAC", "ACGTACGTAC", "ACGTACGTAC")
	if _, err := AlignDiagonal(context.Background(), tr, dnaSch, Options{MaxBytes: 64}); err == nil {
		t.Fatal("memory cap not enforced")
	}
}

func TestAlignPrunedParallelEqualsSequentialPruned(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 8; trial++ {
		tr := relatedTriple(rng.Int63(), 10+rng.Intn(25), 0.15)
		seqAln, seqStats, err := AlignPrunedParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		parAln, parStats, err := AlignPrunedParallel(context.Background(), tr, dnaSch, Options{Workers: 4, BlockSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		checkAlignment(t, parAln, dnaSch)
		if parAln.Score != seqAln.Score {
			t.Fatalf("trial %d: parallel pruned %d != sequential pruned %d", trial, parAln.Score, seqAln.Score)
		}
		if parStats.EvaluatedCells != seqStats.EvaluatedCells {
			t.Fatalf("trial %d: evaluated cells differ: %d vs %d (the bound is deterministic)",
				trial, parStats.EvaluatedCells, seqStats.EvaluatedCells)
		}
		if parStats.LowerBound != seqStats.LowerBound {
			t.Fatalf("trial %d: bounds differ: %d vs %d", trial, parStats.LowerBound, seqStats.LowerBound)
		}
	}
}

func TestAlignPrunedParallelWithHeuristicBound(t *testing.T) {
	tr := relatedTriple(71, 40, 0.1)
	ref, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	aln, stats, err := AlignPrunedParallel(context.Background(), tr, dnaSch, Options{Workers: 3}, ref.Score)
	if err != nil {
		t.Fatal(err)
	}
	if aln.Score != ref.Score {
		t.Fatalf("pruned parallel %d != %d", aln.Score, ref.Score)
	}
	if stats.Fraction() >= 0.5 {
		t.Fatalf("similar sequences with optimal bound: fraction %.2f, expected strong pruning", stats.Fraction())
	}
}
