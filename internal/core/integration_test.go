package core

import (
	"context"
	"testing"
)

// TestLongSequencesLinearSpace is the end-to-end "long sequences" scenario
// the linear-space algorithm exists for: a length-320 triple whose full
// lattice (≈132 MB) is aligned within a 16 MB lattice budget, and the
// score is cross-checked against the Carrillo–Lipman band.
func TestLongSequencesLinearSpace(t *testing.T) {
	if testing.Short() {
		t.Skip("long-input integration test")
	}
	tr := relatedTriple(2026, 320, 0.1)
	lin, err := AlignParallelLinear(context.Background(), tr, dnaSch, Options{MaxBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	checkAlignment(t, lin, dnaSch)

	// Independent cross-check with a completely different strategy.
	bounded, _, err := AlignBounded(context.Background(), tr, dnaSch, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if lin.Score != bounded.Score {
		t.Fatalf("linear-space %d != bounded band %d", lin.Score, bounded.Score)
	}
	if need := FullMatrixBytes(tr); need < (16 << 20) {
		t.Fatalf("test misconfigured: full lattice %d fits the cap", need)
	}
}

// TestLongSequencesBandedFastPath checks the banded tube on a long,
// highly similar triple against the same bounded reference.
func TestLongSequencesBandedFastPath(t *testing.T) {
	if testing.Short() {
		t.Skip("long-input integration test")
	}
	tr := relatedTriple(2027, 200, 0.03)
	ref, _, err := AlignBounded(context.Background(), tr, dnaSch, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	banded, err := AlignBanded(context.Background(), tr, dnaSch, Options{}, 12)
	if err != nil {
		t.Fatal(err)
	}
	if banded.Score != ref.Score {
		t.Fatalf("banded(12) %d != optimum %d on 97%%-identity input", banded.Score, ref.Score)
	}
}
