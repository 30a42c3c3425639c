package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/seq"
)

func TestScoreEqualsFull(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 15; trial++ {
		tr := randomTriple(rng, rng.Intn(25), rng.Intn(25), rng.Intn(25))
		ref, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 4} {
			got, err := Score(context.Background(), tr, dnaSch, Options{Workers: workers, BlockSize: 8})
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
			}
			if got != ref.Score {
				t.Fatalf("trial %d workers=%d: Score = %d, full = %d", trial, workers, got, ref.Score)
			}
		}
	}
}

func TestScoreMemoryCap(t *testing.T) {
	tr := dnaTriple(t, "ACGTACGT", "ACGTACGT", "ACGTACGT")
	if _, err := Score(context.Background(), tr, dnaSch, Options{MaxBytes: 8}); err == nil {
		t.Fatal("memory cap not enforced")
	}
}

func TestAlignBandedWideIsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 10; trial++ {
		tr := randomTriple(rng, rng.Intn(18), rng.Intn(18), rng.Intn(18))
		ref, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		w := tr.A.Len() + tr.B.Len() + tr.C.Len() + 1
		aln, err := AlignBanded(context.Background(), tr, dnaSch, Options{}, w)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkAlignment(t, aln, dnaSch)
		if aln.Score != ref.Score {
			t.Fatalf("trial %d: full-width band %d != optimum %d", trial, aln.Score, ref.Score)
		}
	}
}

func TestAlignBandedNarrowIsValidLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	for trial := 0; trial < 12; trial++ {
		tr := randomTriple(rng, rng.Intn(20), rng.Intn(20), rng.Intn(20))
		ref, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, 4} {
			aln, err := AlignBanded(context.Background(), tr, dnaSch, Options{}, w)
			if err != nil {
				t.Fatalf("trial %d width=%d (%s): %v", trial, w, tr.Describe(), err)
			}
			checkAlignment(t, aln, dnaSch)
			if aln.Score > ref.Score {
				t.Fatalf("trial %d width=%d: banded %d beats optimum %d", trial, w, aln.Score, ref.Score)
			}
		}
	}
}

func TestAlignBandedUnequalLengthsConnected(t *testing.T) {
	// Highly skewed shapes exercise the progress-scaled tube; width 1 must
	// still produce a valid alignment.
	shapes := [][3]int{{1, 20, 1}, {30, 2, 2}, {0, 15, 3}, {12, 0, 0}}
	g := seq.NewGenerator(seq.DNA, 4)
	for _, s := range shapes {
		tr := seq.Triple{
			A: g.Random("A", s[0]),
			B: g.Random("B", s[1]),
			C: g.Random("C", s[2]),
		}
		aln, err := AlignBanded(context.Background(), tr, dnaSch, Options{}, 1)
		if err != nil {
			t.Fatalf("shape %v: %v", s, err)
		}
		checkAlignment(t, aln, dnaSch)
	}
}

func TestAlignBandedSimilarSequencesExact(t *testing.T) {
	tr := relatedTriple(91, 60, 0.05)
	ref, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	aln, err := AlignBanded(context.Background(), tr, dnaSch, Options{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if aln.Score != ref.Score {
		t.Fatalf("similar sequences: banded(8) %d != optimum %d", aln.Score, ref.Score)
	}
	// The tube covers a small fraction of the lattice.
	frac := float64(BandedCells(tr, 8)) / float64(int64(tr.A.Len()+1)*int64(tr.B.Len()+1)*int64(tr.C.Len()+1))
	if frac > 0.4 {
		t.Errorf("band covers %.2f of the lattice, expected a thin tube", frac)
	}
}

func TestAlignBandedWidthValidation(t *testing.T) {
	tr := dnaTriple(t, "AC", "AC", "AC")
	if _, err := AlignBanded(context.Background(), tr, dnaSch, Options{}, 0); err == nil {
		t.Fatal("width 0 accepted")
	}
}

func TestBandedCellsMonotoneInWidth(t *testing.T) {
	tr := relatedTriple(93, 25, 0.2)
	prev := int64(0)
	for _, w := range []int{1, 2, 4, 8, 100} {
		c := BandedCells(tr, w)
		if c < prev {
			t.Fatalf("BandedCells not monotone: %d at width %d after %d", c, w, prev)
		}
		prev = c
	}
	total := int64(tr.A.Len()+1) * int64(tr.B.Len()+1) * int64(tr.C.Len()+1)
	if prev != total {
		t.Fatalf("huge width covers %d cells, want all %d", prev, total)
	}
}
