package repro

import (
	"errors"
	"testing"

	"repro/internal/faultpoint"
	"repro/internal/wavefront"
)

// The library-level chaos suite: with the core.fill.block fault point
// panicking inside kernel block fills, the public API must contain the
// blast — a typed error from the faulted call, exact results everywhere
// else, and an arena healthy enough that the very next alignment is
// correct.

func chaosTriple(t *testing.T, seed int64, n int) Triple {
	t.Helper()
	g := NewGenerator(DNA, seed)
	return g.RelatedTriple(n, MutationModel{SubstitutionRate: 0.2, InsertionRate: 0.03, DeletionRate: 0.03})
}

// TestChaosFillPanicContainedParallel injects one block-fill panic into a
// parallel run: Align must return the contained panic as an error, and the
// immediately following (fault spent) alignment must be exact.
func TestChaosFillPanicContainedParallel(t *testing.T) {
	tr := chaosTriple(t, 31, 96)
	want, err := Align(tr, Options{Algorithm: AlgorithmParallel, Workers: 4})
	if err != nil {
		t.Fatalf("baseline align: %v", err)
	}

	t.Cleanup(faultpoint.Reset)
	if err := faultpoint.Arm("core.fill.block", "nth:2"); err != nil {
		t.Fatal(err)
	}
	_, err = Align(tr, Options{Algorithm: AlgorithmParallel, Workers: 4})
	if err == nil {
		t.Fatal("injected fill panic produced no error")
	}
	if !wavefront.IsPanic(err) {
		t.Fatalf("err = %v, want a contained *wavefront.PanicError", err)
	}

	res, err := Align(tr, Options{Algorithm: AlgorithmParallel, Workers: 4})
	if err != nil {
		t.Fatalf("align after contained panic: %v", err)
	}
	if res.Score != want.Score {
		t.Fatalf("score after contained panic = %d, want %d (arena corrupted?)", res.Score, want.Score)
	}
}

// TestChaosFillPanicContainedOneWorker is the one-worker twin of the
// parallel containment test: a sequential fill is the blocked schedule run
// by one worker, so an injected block-fill panic comes back from a single
// Align call as a contained *wavefront.PanicError instead of unwinding the
// caller — for the linear-gap and the affine kernel alike.
func TestChaosFillPanicContainedOneWorker(t *testing.T) {
	tr := chaosTriple(t, 37, 48)
	dna, err := DefaultScheme(DNA)
	if err != nil {
		t.Fatal(err)
	}
	affine, err := dna.WithGaps(-4, -1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultpoint.Reset)
	for _, opt := range []Options{
		{Workers: 1},
		{Algorithm: AlgorithmFull, Workers: 1},
		{Scheme: affine, Workers: 1},
	} {
		want, err := Align(tr, opt)
		if err != nil {
			t.Fatalf("%+v: baseline align: %v", opt, err)
		}
		if err := faultpoint.Arm("core.fill.block", "nth:3"); err != nil {
			t.Fatal(err)
		}
		_, err = Align(tr, opt)
		if !wavefront.IsPanic(err) {
			t.Fatalf("%+v: err = %v, want a contained *wavefront.PanicError", opt, err)
		}
		faultpoint.Reset()
		res, err := Align(tr, opt)
		if err != nil {
			t.Fatalf("%+v: align after contained panic: %v", opt, err)
		}
		if res.Score != want.Score {
			t.Fatalf("%+v: score after contained panic = %d, want %d", opt, res.Score, want.Score)
		}
	}
}

// TestChaosBatchFaultsNoLostItems runs a heterogeneous batch with periodic
// fill panics: every submitted item must come back exactly once, in order,
// either failed with an error or with the exact fault-free score — never
// silently dropped, duplicated, or wrong.
func TestChaosBatchFaultsNoLostItems(t *testing.T) {
	const n = 12
	triples := make([]Triple, n)
	wants := make([]int32, n)
	for i := range triples {
		triples[i] = chaosTriple(t, int64(100+i), 40)
		res, err := Align(triples[i], Options{Workers: 1})
		if err != nil {
			t.Fatalf("baseline %d: %v", i, err)
		}
		wants[i] = res.Score
	}

	t.Cleanup(faultpoint.Reset)
	if err := faultpoint.Arm("core.fill.block", "every:4"); err != nil {
		t.Fatal(err)
	}
	results := AlignBatch(triples, Options{Workers: 4})
	if len(results) != n {
		t.Fatalf("batch returned %d results for %d items", len(results), n)
	}
	var failed, succeeded int
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("result %d carries index %d: batch order lost", i, r.Index)
		}
		if r.Err != nil {
			failed++
			continue
		}
		if r.Result == nil {
			t.Fatalf("item %d: no error and no result", i)
		}
		if r.Result.Score != wants[i] {
			t.Fatalf("item %d score = %d, want %d: fault corrupted a surviving item", i, r.Result.Score, wants[i])
		}
		succeeded++
	}
	if failed == 0 {
		t.Fatal("every:4 fill fault failed no batch item")
	}
	if hits, fired := faultpoint.Stats("core.fill.block"); fired == 0 {
		t.Fatalf("fill fault never fired (hits=%d)", hits)
	}
	t.Logf("batch under faults: %d failed, %d exact", failed, succeeded)

	// The arena survives the contained panics: disarm and re-align every
	// triple exactly.
	faultpoint.Reset()
	for i, r := range AlignBatch(triples, Options{Workers: 4}) {
		if r.Err != nil {
			t.Fatalf("post-chaos item %d: %v", i, r.Err)
		}
		if r.Result.Score != wants[i] {
			t.Fatalf("post-chaos item %d score = %d, want %d", i, r.Result.Score, wants[i])
		}
	}
}

// TestStalledFacade pins the public aliases: a wavefront stall surfaces
// through the repro facade as ErrStalled / StallError.
func TestStalledFacade(t *testing.T) {
	if !errors.Is(ErrStalled, wavefront.ErrStalled) {
		t.Fatal("repro.ErrStalled is not wavefront.ErrStalled")
	}
	var se *StallError
	err := error(&wavefront.StallError{Completed: 1, Total: 2})
	if !errors.As(err, &se) || !errors.Is(err, ErrStalled) {
		t.Fatal("StallError alias does not unwrap to ErrStalled through the facade")
	}
}
