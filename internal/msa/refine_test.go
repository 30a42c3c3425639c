package msa

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/alignment"
	"repro/internal/core"
	"repro/internal/seq"
)

func TestRefineNeverWorsensAndStaysBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for trial := 0; trial < 20; trial++ {
		g := seq.NewGenerator(seq.DNA, rng.Int63())
		tr := g.RelatedTriple(10+rng.Intn(30), seq.Uniform(0.25))
		start, err := CenterStar(tr, dnaSch)
		if err != nil {
			t.Fatal(err)
		}
		refined, err := Refine(start, dnaSch, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := refined.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if refined.Score < start.Score {
			t.Fatalf("trial %d: refinement worsened score: %d -> %d", trial, start.Score, refined.Score)
		}
		if got := refined.SPScore(dnaSch); got != refined.Score {
			t.Fatalf("trial %d: reported %d, recomputed %d", trial, refined.Score, got)
		}
		opt, err := core.AlignParallel(context.Background(), tr, dnaSch, core.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if refined.Score > opt.Score {
			t.Fatalf("trial %d: refined %d beats optimum %d", trial, refined.Score, opt.Score)
		}
	}
}

func TestRefineImprovesCenterStarSometimes(t *testing.T) {
	// Across a batch of indel-heavy triples refinement must find at least
	// one strict improvement, otherwise it is doing nothing.
	improved := 0
	for s := int64(0); s < 12; s++ {
		g := seq.NewGenerator(seq.DNA, 500+s)
		tr := g.RelatedTriple(40, seq.MutationModel{SubstitutionRate: 0.25, InsertionRate: 0.08, DeletionRate: 0.08})
		start, err := CenterStar(tr, dnaSch)
		if err != nil {
			t.Fatal(err)
		}
		refined, err := Refine(start, dnaSch, 0)
		if err != nil {
			t.Fatal(err)
		}
		if refined.Score > start.Score {
			improved++
		}
	}
	if improved == 0 {
		t.Fatal("refinement never improved center-star over 12 indel-heavy triples")
	}
}

func TestRefineFixedPointOnOptimal(t *testing.T) {
	// Refining an exact optimum cannot change its score.
	g := seq.NewGenerator(seq.DNA, 601)
	tr := g.RelatedTriple(30, seq.Uniform(0.2))
	opt, err := core.AlignParallel(context.Background(), tr, dnaSch, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := Refine(opt, dnaSch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if refined.Score != opt.Score {
		t.Fatalf("refined optimum score %d != %d", refined.Score, opt.Score)
	}
}

func TestRefineRejectsInvalid(t *testing.T) {
	g := seq.NewGenerator(seq.DNA, 602)
	tr := g.RelatedTriple(10, seq.Uniform(0.1))
	bad, err := CenterStar(tr, dnaSch)
	if err != nil {
		t.Fatal(err)
	}
	bad.Moves = bad.Moves[:len(bad.Moves)-1] // corrupt consumption
	if _, err := Refine(bad, dnaSch, 0); err == nil {
		t.Fatal("invalid input accepted")
	}
}

func TestRefineDoesNotMutateInput(t *testing.T) {
	g := seq.NewGenerator(seq.DNA, 603)
	tr := g.RelatedTriple(30, seq.MutationModel{SubstitutionRate: 0.3, InsertionRate: 0.1, DeletionRate: 0.1})
	start, err := CenterStar(tr, dnaSch)
	if err != nil {
		t.Fatal(err)
	}
	movesBefore := movesBytes(start.Moves)
	if _, err := Refine(start, dnaSch, 0); err != nil {
		t.Fatal(err)
	}
	if movesBefore != movesBytes(start.Moves) {
		t.Fatal("Refine mutated its input alignment")
	}
}

func movesBytes(ms []alignment.Move) string {
	out := make([]byte, len(ms))
	for i, m := range ms {
		out[i] = byte(m)
	}
	return string(out)
}

func TestCenterStarRefined(t *testing.T) {
	g := seq.NewGenerator(seq.DNA, 604)
	tr := g.RelatedTriple(40, seq.MutationModel{SubstitutionRate: 0.2, InsertionRate: 0.06, DeletionRate: 0.06})
	cs, err := CenterStar(tr, dnaSch)
	if err != nil {
		t.Fatal(err)
	}
	csr, err := CenterStarRefined(tr, dnaSch)
	if err != nil {
		t.Fatal(err)
	}
	if csr.Score < cs.Score {
		t.Fatalf("CenterStarRefined %d below CenterStar %d", csr.Score, cs.Score)
	}
	// And it still serves as a pruning bound.
	aln, _, err := core.AlignBounded(context.Background(), tr, dnaSch, core.Options{Workers: 1}, csr.Score)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := core.AlignParallel(context.Background(), tr, dnaSch, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if aln.Score != opt.Score {
		t.Fatalf("pruned with refined bound %d != optimum %d", aln.Score, opt.Score)
	}
}

func TestRefineContextCancelled(t *testing.T) {
	tr := triple(t, "ACGTACGTAC", "ACGTAACGTC", "ACGGTACGAC")
	aln, err := CenterStar(tr, dnaSch)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RefineContext(ctx, aln, dnaSch, 0); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The uncancelled path still refines.
	if _, err := RefineContext(context.Background(), aln, dnaSch, 0); err != nil {
		t.Fatal(err)
	}
}
