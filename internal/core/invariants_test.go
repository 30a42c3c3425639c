package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/alignment"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// maxInt3 is max(n, m, p) — the lower bound on alignment columns.
func maxInt3(a, b, c int) int {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}

// TestColumnCountBounds: every algorithm's alignment has between
// max(n,m,p) and n+m+p columns.
func TestColumnCountBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(901))
	algos := map[string]func(seq.Triple) (*alignment.Alignment, error){
		"full": func(tr seq.Triple) (*alignment.Alignment, error) {
			return AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
		},
		"parallel": func(tr seq.Triple) (*alignment.Alignment, error) {
			return AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 3, BlockSize: 5})
		},
		"linear": func(tr seq.Triple) (*alignment.Alignment, error) {
			return AlignParallelLinear(context.Background(), tr, dnaSch, Options{Workers: 1})
		},
		"diagonal": func(tr seq.Triple) (*alignment.Alignment, error) {
			return alignDiagonal(context.Background(), tr, dnaSch, Options{Workers: 2})
		},
		"affine": func(tr seq.Triple) (*alignment.Alignment, error) {
			return AlignAffineParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
		},
		"banded": func(tr seq.Triple) (*alignment.Alignment, error) {
			return AlignBanded(context.Background(), tr, dnaSch, Options{}, 3)
		},
	}
	for trial := 0; trial < 10; trial++ {
		tr := randomTriple(rng, rng.Intn(15), rng.Intn(15), rng.Intn(15))
		lo := maxInt3(tr.A.Len(), tr.B.Len(), tr.C.Len())
		hi := tr.A.Len() + tr.B.Len() + tr.C.Len()
		for name, run := range algos {
			aln, err := run(tr)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if aln.Columns() < lo || aln.Columns() > hi {
				t.Fatalf("trial %d %s: %d columns, want in [%d, %d]", trial, name, aln.Columns(), lo, hi)
			}
		}
	}
}

// TestDeterministicTracebacks: sequential algorithms return identical move
// sequences on repeated runs (the parallel ones are only score-deterministic).
func TestDeterministicTracebacks(t *testing.T) {
	tr := relatedTriple(903, 25, 0.25)
	for name, run := range map[string]func() (*alignment.Alignment, error){
		"full": func() (*alignment.Alignment, error) {
			return AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
		},
		"linear": func() (*alignment.Alignment, error) {
			return AlignParallelLinear(context.Background(), tr, dnaSch, Options{Workers: 1})
		},
		"affine": func() (*alignment.Alignment, error) {
			return AlignAffineParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
		},
	} {
		a, err := run()
		if err != nil {
			t.Fatal(err)
		}
		b, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Moves) != len(b.Moves) {
			t.Fatalf("%s: non-deterministic column counts %d vs %d", name, len(a.Moves), len(b.Moves))
		}
		for i := range a.Moves {
			if a.Moves[i] != b.Moves[i] {
				t.Fatalf("%s: non-deterministic traceback at column %d", name, i)
			}
		}
	}
}

// TestParallelTracebackMatchesSequential: the parallel full-matrix lattice
// is bitwise the same as the sequential one, so even the traceback agrees.
func TestParallelTracebackMatchesSequential(t *testing.T) {
	tr := relatedTriple(905, 30, 0.2)
	seqAln, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parAln, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 4, BlockSize: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqAln.Moves) != len(parAln.Moves) {
		t.Fatalf("column counts differ: %d vs %d", len(seqAln.Moves), len(parAln.Moves))
	}
	for i := range seqAln.Moves {
		if seqAln.Moves[i] != parAln.Moves[i] {
			t.Fatalf("tracebacks diverge at column %d", i)
		}
	}
}

// TestScoreMonotoneInGapPenalty: harsher gap penalties never raise the
// optimum when the shapes force gaps.
func TestScoreMonotoneInGapPenalty(t *testing.T) {
	rng := rand.New(rand.NewSource(907))
	for trial := 0; trial < 10; trial++ {
		tr := randomTriple(rng, 4+rng.Intn(10), 8+rng.Intn(10), rng.Intn(6))
		mild, err := scoring.MatchMismatch(seq.DNA, 2, -1, -1)
		if err != nil {
			t.Fatal(err)
		}
		harsh, err := scoring.MatchMismatch(seq.DNA, 2, -1, -6)
		if err != nil {
			t.Fatal(err)
		}
		sMild, err := Score(context.Background(), tr, mild, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sHarsh, err := Score(context.Background(), tr, harsh, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sHarsh > sMild {
			t.Fatalf("trial %d: harsher gaps raised score: %d > %d", trial, sHarsh, sMild)
		}
	}
}

// TestAlignmentNeverHasAllGapColumn across algorithms (Validate enforces
// this, but assert it directly for the parallel paths).
func TestAlignmentNeverHasAllGapColumn(t *testing.T) {
	tr := relatedTriple(909, 20, 0.4)
	for _, run := range []func() (*alignment.Alignment, error){
		func() (*alignment.Alignment, error) {
			return AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 5})
		},
		func() (*alignment.Alignment, error) {
			return AlignParallelLinear(context.Background(), tr, dnaSch, Options{Workers: 5})
		},
	} {
		aln, err := run()
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range aln.Moves {
			if !m.Valid() {
				t.Fatalf("column %d invalid: %v", i, m)
			}
		}
	}
}
