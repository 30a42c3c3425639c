package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/alignment"
	"repro/internal/faultpoint"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// TestKernelsPreCancelled verifies every exact kernel rejects an
// already-cancelled context before touching the lattice.
func TestKernelsPreCancelled(t *testing.T) {
	tr := dnaTriple(t, "ACGTACGT", "ACGACGT", "ACGTACG")
	affSch, err := scoring.DNADefault().WithGaps(-4, -1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	kernels := []struct {
		name string
		run  func() error
	}{
		{"full", func() error { _, err := AlignParallel(ctx, tr, dnaSch, Options{Workers: 1}); return err }},
		{"parallel", func() error { _, err := AlignParallel(ctx, tr, dnaSch, Options{}); return err }},
		{"linear", func() error { _, err := AlignParallelLinear(ctx, tr, dnaSch, Options{Workers: 1}); return err }},
		{"parallel-linear", func() error { _, err := AlignParallelLinear(ctx, tr, dnaSch, Options{}); return err }},
		{"bounded", func() error { _, _, err := AlignBounded(ctx, tr, dnaSch, Options{}, -1000); return err }},
		{"astar", func() error { _, _, err := AlignAStar(ctx, tr, dnaSch, Options{}, -1000); return err }},
		{"affine", func() error { _, err := AlignAffineParallel(ctx, tr, affSch, Options{Workers: 1}); return err }},
		{"affine-linear", func() error { _, err := AlignAffineLinear(ctx, tr, affSch, Options{}); return err }},
		{"affine-parallel", func() error { _, err := AlignAffineParallel(ctx, tr, affSch, Options{}); return err }},
		{"score", func() error { _, err := Score(ctx, tr, dnaSch, Options{}); return err }},
	}
	for _, k := range kernels {
		err := k.run()
		if err == nil {
			t.Errorf("%s: pre-cancelled context accepted", k.name)
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want wrapped context.Canceled", k.name, err)
		}
	}
}

// TestKernelMidPlaneCancel cancels a sequential kernel after it has
// started: the per-plane poll must stop the fill and surface the error.
func TestKernelMidPlaneCancel(t *testing.T) {
	g := seq.NewGenerator(seq.DNA, 91)
	tr := g.RelatedTriple(80, seq.Uniform(0.1))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var aln *alignment.Alignment
	var err error
	go func() {
		defer close(done)
		aln, err = AlignParallel(ctx, tr, dnaSch, Options{Workers: 1})
	}()
	cancel()
	<-done
	if err == nil {
		// The fill won the race — legal, but then the result must be valid.
		if vErr := aln.Validate(); vErr != nil {
			t.Fatal(vErr)
		}
		return
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

// pollCancelCtx reports context.Canceled from its Err method once it has
// been polled more than live times: a cancellation that lands at an exact,
// reproducible point of a kernel's polling sequence.
type pollCancelCtx struct {
	context.Context
	live  int
	polls int
}

func (c *pollCancelCtx) Err() error {
	c.polls++
	if c.polls > c.live {
		return context.Canceled
	}
	return nil
}

// TestOneWorkerCancelWithinOnePlane pins the cancellation granularity of
// the one-worker schedule: the blocked kernels fill whole i-planes and poll
// the context before each one, so a cancellation observed at a poll stops
// the fill before another plane starts. The core.fill.block point, armed
// in "off" mode, counts the planes that were filled.
func TestOneWorkerCancelWithinOnePlane(t *testing.T) {
	tr := relatedTriple(93, 60, 0.2)
	affSch, err := scoring.DNADefault().WithGaps(-4, -1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultpoint.Reset)
	for name, run := range map[string]func(context.Context) error{
		"full-packed": func(ctx context.Context) error {
			_, err := AlignParallel(ctx, tr, dnaSch, Options{Workers: 1})
			return err
		},
		"affine": func(ctx context.Context) error {
			_, err := AlignAffineParallel(ctx, tr, affSch, Options{Workers: 1})
			return err
		},
	} {
		for _, live := range []int{1, 5, 20} {
			if err := faultpoint.Arm("core.fill.block", "off"); err != nil {
				t.Fatal(err)
			}
			ctx := &pollCancelCtx{Context: context.Background(), live: live}
			err := run(ctx)
			planes, _ := faultpoint.Stats("core.fill.block")
			faultpoint.Reset()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s live=%d: err = %v, want wrapped context.Canceled", name, live, err)
			}
			// The kernel's entry check takes one poll and each plane after
			// it one more, so exactly live-1 planes run; one more would
			// still be within a plane of the cancellation.
			if planes < int64(live)-1 || planes > int64(live) {
				t.Fatalf("%s live=%d: %d planes filled, want %d (at most one past the cancellation)",
					name, live, planes, live-1)
			}
		}
	}
}
