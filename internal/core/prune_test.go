package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/seq"
)

func TestTrivialAlignmentValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		tr := randomTriple(rng, rng.Intn(10), rng.Intn(10), rng.Intn(10))
		aln, err := TrivialAlignment(tr, dnaSch)
		if err != nil {
			t.Fatal(err)
		}
		checkAlignment(t, aln, dnaSch)
		opt, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if aln.Score > opt.Score {
			t.Fatalf("trivial score %d exceeds optimum %d", aln.Score, opt.Score)
		}
	}
}

func TestAlignPrunedPreservesOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		var tr seq.Triple
		if trial%2 == 0 {
			tr = randomTriple(rng, 5+rng.Intn(20), 5+rng.Intn(20), 5+rng.Intn(20))
		} else {
			tr = relatedTriple(rng.Int63(), 10+rng.Intn(20), 0.15)
		}
		ref, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		aln, stats, err := AlignPrunedParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkAlignment(t, aln, dnaSch)
		if aln.Score != ref.Score {
			t.Fatalf("trial %d: pruned %d != full %d", trial, aln.Score, ref.Score)
		}
		if stats.EvaluatedCells > stats.TotalCells || stats.EvaluatedCells <= 0 {
			t.Fatalf("trial %d: nonsensical stats %+v", trial, stats)
		}
		if stats.Optimum != ref.Score {
			t.Fatalf("trial %d: stats.Optimum = %d, want %d", trial, stats.Optimum, ref.Score)
		}
	}
}

func TestAlignPrunedTighterBoundPrunesMore(t *testing.T) {
	tr := relatedTriple(9, 50, 0.1)
	ref, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, loose, err := AlignPrunedParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	alnTight, tight, err := AlignPrunedParallel(context.Background(), tr, dnaSch, Options{Workers: 1}, ref.Score)
	if err != nil {
		t.Fatal(err)
	}
	if alnTight.Score != ref.Score {
		t.Fatalf("tight-bound optimum %d != %d", alnTight.Score, ref.Score)
	}
	if tight.EvaluatedCells > loose.EvaluatedCells {
		t.Fatalf("tighter bound evaluated more cells: %d > %d", tight.EvaluatedCells, loose.EvaluatedCells)
	}
	if tight.Fraction() >= 1 {
		t.Fatalf("optimal bound pruned nothing: fraction = %v", tight.Fraction())
	}
}

func TestAlignPrunedSimilarSequencesPruneHard(t *testing.T) {
	// Highly similar sequences: the admissible corridor hugs the diagonal
	// and the evaluated fraction should be well below 1. The optimal score
	// is passed as the bound, as the paper's Carrillo–Lipman setup does
	// with a good heuristic.
	tr := relatedTriple(77, 60, 0.05)
	ref, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := AlignPrunedParallel(context.Background(), tr, dnaSch, Options{Workers: 1}, ref.Score)
	if err != nil {
		t.Fatal(err)
	}
	if f := stats.Fraction(); f > 0.5 {
		t.Fatalf("similar sequences evaluated fraction %.2f, expected strong pruning", f)
	}
}

func TestAlignPrunedIgnoresWeakerProvidedBound(t *testing.T) {
	tr := relatedTriple(8, 20, 0.2)
	// A hugely negative provided bound must not weaken the built-in one.
	_, withWeak, err := AlignPrunedParallel(context.Background(), tr, dnaSch, Options{Workers: 1}, -1<<20)
	if err != nil {
		t.Fatal(err)
	}
	_, base, err := AlignPrunedParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if withWeak.EvaluatedCells != base.EvaluatedCells {
		t.Fatalf("weaker bound changed pruning: %d vs %d", withWeak.EvaluatedCells, base.EvaluatedCells)
	}
	if withWeak.LowerBound != base.LowerBound {
		t.Fatalf("LowerBound %d != %d", withWeak.LowerBound, base.LowerBound)
	}
}

func TestPruneStatsFraction(t *testing.T) {
	if f := (PruneStats{TotalCells: 100, EvaluatedCells: 25}).Fraction(); f != 0.25 {
		t.Errorf("Fraction = %v, want 0.25", f)
	}
	if f := (PruneStats{}).Fraction(); f != 0 {
		t.Errorf("empty Fraction = %v, want 0", f)
	}
}

func TestAlignPrunedEmptySequences(t *testing.T) {
	tr := dnaTriple(t, "", "ACG", "AG")
	ref, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	aln, _, err := AlignPrunedParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if aln.Score != ref.Score {
		t.Fatalf("pruned %d != full %d", aln.Score, ref.Score)
	}
}
