package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/alignment"
	"repro/internal/scoring"
	"repro/internal/seq"
)

var dnaSch = scoring.DNADefault()

func dnaTriple(t *testing.T, a, b, c string) seq.Triple {
	t.Helper()
	return seq.Triple{
		A: seq.MustNew("A", a, seq.DNA),
		B: seq.MustNew("B", b, seq.DNA),
		C: seq.MustNew("C", c, seq.DNA),
	}
}

func randomTriple(rng *rand.Rand, na, nb, nc int) seq.Triple {
	g := seq.NewGenerator(seq.DNA, rng.Int63())
	return seq.Triple{
		A: g.Random("A", na),
		B: g.Random("B", nb),
		C: g.Random("C", nc),
	}
}

func relatedTriple(seed int64, n int, rate float64) seq.Triple {
	g := seq.NewGenerator(seq.DNA, seed)
	return g.RelatedTriple(n, seq.Uniform(rate))
}

// checkAlignment validates structure and that the reported score matches an
// independent recomputation.
func checkAlignment(t *testing.T, aln *alignment.Alignment, sch *scoring.Scheme) {
	t.Helper()
	if err := aln.Validate(); err != nil {
		t.Fatalf("alignment invalid: %v", err)
	}
	if got := aln.SPScore(sch); got != aln.Score {
		t.Fatalf("SPScore = %d, reported Score = %d", got, aln.Score)
	}
}

func TestAlignFullKnownCases(t *testing.T) {
	cases := []struct {
		a, b, c string
		want    int32
	}{
		{"", "", "", 0},
		{"A", "A", "A", 6},        // one XXX column, three matches
		{"A", "A", "", -2},        // match + two gaps vs C... see below
		{"ACG", "ACG", "ACG", 18}, // three XXX columns
		{"A", "C", "G", -3},       // one column, three mismatches
	}
	for _, c := range cases {
		tr := dnaTriple(t, c.a, c.b, c.c)
		aln, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
		if err != nil {
			t.Fatalf("AlignParallel(%q,%q,%q): %v", c.a, c.b, c.c, err)
		}
		checkAlignment(t, aln, dnaSch)
		if aln.Score != c.want {
			t.Errorf("AlignParallel(%q,%q,%q) = %d, want %d", c.a, c.b, c.c, aln.Score, c.want)
		}
	}
}

func TestAlignFullIdenticalSequencesAllXXX(t *testing.T) {
	tr := dnaTriple(t, "ACGTACGT", "ACGTACGT", "ACGTACGT")
	aln, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if aln.Columns() != 8 {
		t.Fatalf("columns = %d, want 8", aln.Columns())
	}
	for _, m := range aln.Moves {
		if m != alignment.MoveXXX {
			t.Fatalf("non-XXX move %s for identical sequences", m)
		}
	}
}

func TestAlignFullMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		tr := randomTriple(rng, rng.Intn(5), rng.Intn(5), rng.Intn(5))
		want, err := BruteForceScore(tr, dnaSch)
		if err != nil {
			t.Fatal(err)
		}
		aln, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if aln.Score != want {
			t.Fatalf("trial %d (%s): full = %d, brute = %d", trial, tr.Describe(), aln.Score, want)
		}
		checkAlignment(t, aln, dnaSch)
	}
}

func TestAlignFullMatchesBruteForceProtein(t *testing.T) {
	sch, err := scoring.BLOSUM62().WithGaps(0, -4)
	if err != nil {
		t.Fatal(err)
	}
	g := seq.NewGenerator(seq.Protein, 17)
	for trial := 0; trial < 20; trial++ {
		tr := seq.Triple{A: g.Random("A", 3), B: g.Random("B", 4), C: g.Random("C", 3)}
		want, err := BruteForceScore(tr, sch)
		if err != nil {
			t.Fatal(err)
		}
		aln, err := AlignParallel(context.Background(), tr, sch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if aln.Score != want {
			t.Fatalf("trial %d: full = %d, brute = %d", trial, aln.Score, want)
		}
	}
}

// kernelFunc is the common signature of the traceback kernels.
type kernelFunc = func(context.Context, seq.Triple, *scoring.Scheme, Options) (*alignment.Alignment, error)

// oneWorker pins a kernel to the sequential, one-worker schedule whatever
// worker count the caller's options carry.
func oneWorker(f kernelFunc) kernelFunc {
	return func(ctx context.Context, tr seq.Triple, sch *scoring.Scheme, opt Options) (*alignment.Alignment, error) {
		opt.Workers = 1
		return f(ctx, tr, sch, opt)
	}
}

func TestAllAlgorithmsAgreeOnScore(t *testing.T) {
	type algo struct {
		name string
		run  func(context.Context, seq.Triple, *scoring.Scheme, Options) (*alignment.Alignment, error)
	}
	algos := []algo{
		{"parallel", AlignParallel},
		{"linear", oneWorker(AlignParallelLinear)},
		{"parallel-linear", AlignParallelLinear},
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 12; trial++ {
		var tr seq.Triple
		if trial%2 == 0 {
			tr = randomTriple(rng, 5+rng.Intn(25), 5+rng.Intn(25), 5+rng.Intn(25))
		} else {
			tr = relatedTriple(rng.Int63(), 10+rng.Intn(25), 0.2)
		}
		ref, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		checkAlignment(t, ref, dnaSch)
		for _, a := range algos {
			opt := Options{Workers: 1 + rng.Intn(8), BlockSize: 1 + rng.Intn(12)}
			aln, err := a.run(context.Background(), tr, dnaSch, opt)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, a.name, err)
			}
			checkAlignment(t, aln, dnaSch)
			if aln.Score != ref.Score {
				t.Fatalf("trial %d (%s): %s = %d, full = %d (opt %+v)",
					trial, tr.Describe(), a.name, aln.Score, ref.Score, opt)
			}
		}
	}
}

func TestAlgorithmsHandleEmptySequences(t *testing.T) {
	shapes := [][3]string{
		{"", "", ""},
		{"ACGT", "", ""},
		{"", "ACGT", ""},
		{"", "", "ACGT"},
		{"ACGT", "ACG", ""},
		{"ACGT", "", "AGT"},
		{"", "ACGT", "AGT"},
	}
	for _, s := range shapes {
		tr := dnaTriple(t, s[0], s[1], s[2])
		ref, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
		if err != nil {
			t.Fatalf("%v full: %v", s, err)
		}
		checkAlignment(t, ref, dnaSch)
		for name, run := range map[string]func(context.Context, seq.Triple, *scoring.Scheme, Options) (*alignment.Alignment, error){
			"parallel":        AlignParallel,
			"linear":          oneWorker(AlignParallelLinear),
			"parallel-linear": AlignParallelLinear,
		} {
			aln, err := run(context.Background(), tr, dnaSch, Options{Workers: 4, BlockSize: 3})
			if err != nil {
				t.Fatalf("%v %s: %v", s, name, err)
			}
			checkAlignment(t, aln, dnaSch)
			if aln.Score != ref.Score {
				t.Fatalf("%v %s: %d != %d", s, name, aln.Score, ref.Score)
			}
		}
	}
}

func TestAlignParallelManyConfigurations(t *testing.T) {
	tr := relatedTriple(7, 40, 0.25)
	ref, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8, 33} {
		for _, bs := range []int{1, 2, 7, 16, 64, 1000} {
			aln, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: workers, BlockSize: bs})
			if err != nil {
				t.Fatalf("workers=%d bs=%d: %v", workers, bs, err)
			}
			if aln.Score != ref.Score {
				t.Fatalf("workers=%d bs=%d: %d != %d", workers, bs, aln.Score, ref.Score)
			}
		}
	}
}

func TestReversalSymmetry(t *testing.T) {
	// Aligning the reversed sequences must give the same optimal score.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		tr := randomTriple(rng, 4+rng.Intn(12), 4+rng.Intn(12), 4+rng.Intn(12))
		fwd, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		rev := seq.Triple{A: tr.A.Reverse(), B: tr.B.Reverse(), C: tr.C.Reverse()}
		bwd, err := AlignParallel(context.Background(), rev, dnaSch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if fwd.Score != bwd.Score {
			t.Fatalf("trial %d: forward %d != reversed %d", trial, fwd.Score, bwd.Score)
		}
	}
}

func TestSequencePermutationSymmetry(t *testing.T) {
	// The SP objective is symmetric in the three sequences.
	tr := relatedTriple(31, 18, 0.3)
	base, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	perms := []seq.Triple{
		{A: tr.B, B: tr.A, C: tr.C},
		{A: tr.C, B: tr.B, C: tr.A},
		{A: tr.B, B: tr.C, C: tr.A},
	}
	for i, p := range perms {
		aln, err := AlignParallel(context.Background(), p, dnaSch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if aln.Score != base.Score {
			t.Fatalf("perm %d: %d != %d", i, aln.Score, base.Score)
		}
	}
}

func TestPrepareErrors(t *testing.T) {
	tr := dnaTriple(t, "AC", "AC", "AC")
	if _, err := AlignParallel(context.Background(), tr, nil, Options{Workers: 1}); err == nil {
		t.Error("nil scheme accepted")
	}
	if _, err := AlignParallel(context.Background(), tr, scoring.BLOSUM62(), Options{Workers: 1}); err == nil {
		t.Error("alphabet mismatch accepted")
	}
	mixed := seq.Triple{A: tr.A, B: tr.B, C: seq.MustNew("C", "ARN", seq.Protein)}
	if _, err := AlignParallel(context.Background(), mixed, dnaSch, Options{Workers: 1}); err == nil {
		t.Error("mixed-alphabet triple accepted")
	}
	if _, err := AlignParallel(context.Background(), seq.Triple{A: tr.A, B: tr.B}, dnaSch, Options{Workers: 1}); err == nil {
		t.Error("missing sequence accepted")
	}
}

func TestMemoryCap(t *testing.T) {
	tr := dnaTriple(t, "ACGTACGTAC", "ACGTACGTAC", "ACGTACGTAC")
	_, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1, MaxBytes: 100})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if _, err := AlignParallel(context.Background(), tr, dnaSch, Options{MaxBytes: 100}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("parallel err = %v, want ErrTooLarge", err)
	}
	if _, err := AlignParallelLinear(context.Background(), tr, dnaSch, Options{Workers: 1, MaxBytes: 100}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("linear err = %v, want ErrTooLarge", err)
	}
	if _, _, err := AlignBounded(context.Background(), tr, dnaSch, Options{Workers: 1, MaxBytes: 100}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("bounded err = %v, want ErrTooLarge", err)
	}
	if _, err := AlignAffineParallel(context.Background(), tr, dnaSch, Options{Workers: 1, MaxBytes: 100}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("affine err = %v, want ErrTooLarge", err)
	}
}

func TestMemoryAccountors(t *testing.T) {
	tr := dnaTriple(t, "ACG", "AC", "A")
	if got := FullMatrixBytes(tr); got != 4*4*3*2 {
		t.Errorf("FullMatrixBytes = %d, want 96", got)
	}
	if got := LinearBytes(tr); got != 4*4*3*2 {
		t.Errorf("LinearBytes = %d, want 96 (4 planes of 3x2)", got)
	}
}

func TestProteinEndToEnd(t *testing.T) {
	sch, err := scoring.BLOSUM62().WithGaps(0, -6)
	if err != nil {
		t.Fatal(err)
	}
	g := seq.NewGenerator(seq.Protein, 41)
	tr := g.RelatedTriple(25, seq.Uniform(0.2))
	ref, err := AlignParallel(context.Background(), tr, sch, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkAlignment(t, ref, sch)
	par, err := AlignParallel(context.Background(), tr, sch, Options{Workers: 4, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if par.Score != ref.Score {
		t.Fatalf("parallel protein %d != %d", par.Score, ref.Score)
	}
	lin, err := AlignParallelLinear(context.Background(), tr, sch, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if lin.Score != ref.Score {
		t.Fatalf("linear protein %d != %d", lin.Score, ref.Score)
	}
}
