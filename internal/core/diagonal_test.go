package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/alignment"
	"repro/internal/mat"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// alignDiagonal is the plane-synchronized wavefront, kept as the schedule
// ablation the paper's blocked design is measured against
// (BenchmarkScheduleAblation): all cells on the anti-diagonal plane
// i+j+k = d are independent given planes d-1, d-2, d-3, so each plane is
// split across the worker pool and a barrier separates consecutive planes.
// It needs one barrier per plane (n+m+p+1 of them) and touches memory in
// scattered order — exactly the overhead the blocked schedule removes. It
// fills the same lattice as AlignParallel and shares its traceback, so the
// public "diagonal" name resolves to AlignParallel.
func alignDiagonal(ctx context.Context, tr seq.Triple, sch *scoring.Scheme, opt Options) (*alignment.Alignment, error) {
	ca, cb, cc, err := prepare(tr, sch)
	if err != nil {
		return nil, err
	}
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}
	if FullMatrixBytes(tr) > opt.maxBytes() {
		return nil, fmt.Errorf("%w: need %d bytes, cap %d", ErrTooLarge, FullMatrixBytes(tr), opt.maxBytes())
	}
	n, m, p := len(ca), len(cb), len(cc)
	st := newScoreTables(ca, cb, cc, sch)
	defer st.release()
	t := mat.GetTensor3(n+1, m+1, p+1)
	defer mat.PutTensor3(t)
	ge2 := 2 * sch.GapExtend()
	workers := opt.workers()

	for d := 0; d <= n+m+p; d++ {
		// The plane barrier is the natural cancellation point: between
		// planes no worker goroutine is in flight.
		if err := checkCtx(ctx); err != nil {
			return nil, err
		}
		iLo, iHi := max(d-m-p, 0), min(d, n)
		if iLo > iHi {
			continue
		}
		rows := iHi - iLo + 1
		w := min(workers, rows)
		if w <= 1 {
			diagonalRows(t, st, ge2, d, iLo, iHi, m, p)
			continue
		}
		var wg sync.WaitGroup
		wg.Add(w)
		per := (rows + w - 1) / w
		for g := 0; g < w; g++ {
			lo := iLo + g*per
			hi := min(lo+per-1, iHi)
			go func() {
				defer wg.Done()
				if lo <= hi {
					diagonalRows(t, st, ge2, d, lo, hi, m, p)
				}
			}()
		}
		wg.Wait()
	}

	moves, err := tracebackTensor(t, ca, cb, cc, sch)
	if err != nil {
		return nil, err
	}
	return &alignment.Alignment{Triple: tr, Moves: moves, Score: t.At(n, m, p)}, nil
}

// diagonalRows computes the cells of plane d whose first index lies in
// [iLo, iHi]. Interior cells (all three indices positive) take the
// branch-free table-driven path; the O(surface) boundary cells keep the
// guarded form.
func diagonalRows(t *mat.Tensor3, st *scoreTables, ge2 mat.Score, d, iLo, iHi, m, p int) {
	for i := iLo; i <= iHi; i++ {
		jLo := d - i - p
		if jLo < 0 {
			jLo = 0
		}
		jHi := d - i
		if jHi > m {
			jHi = m
		}
		if i == 0 {
			diagonalBoundary(t, st, ge2, 0, d, jLo, jHi)
			continue
		}
		abRow := st.ab.Row(i)
		acRow := st.ac.Row(i)
		j := jLo
		if j == 0 {
			diagonalBoundary(t, st, ge2, i, d, 0, 0)
			j = 1
		}
		// k = d-i-j decreases as j grows; the last j may hit k == 0.
		for ; j <= jHi; j++ {
			k := d - i - j
			if k == 0 {
				diagonalBoundary(t, st, ge2, i, d, j, j)
				continue
			}
			sAB := abRow[j]
			sac := acRow[k]
			sbc := st.bc.Row(j)[k]
			lane11 := t.Lane(i-1, j-1)
			lane10 := t.Lane(i-1, j)
			lane01 := t.Lane(i, j-1)
			cur := t.Lane(i, j)
			cur[k] = max(
				lane11[k-1]+sAB+sac+sbc, // XXX
				lane11[k]+sAB+ge2,       // XXG
				lane10[k-1]+sac+ge2,     // XGX
				lane01[k-1]+sbc+ge2,     // GXX
				lane10[k]+ge2,           // XGG
				lane01[k]+ge2,           // GXG
				cur[k-1]+ge2,            // GGX
			)
		}
	}
}

// diagonalBoundary computes the cells of plane d in row i whose j index
// lies in [jLo, jHi], tolerating zero indices on any axis.
func diagonalBoundary(t *mat.Tensor3, st *scoreTables, ge2 mat.Score, i, d, jLo, jHi int) {
	for j := jLo; j <= jHi; j++ {
		k := d - i - j
		if i == 0 && j == 0 && k == 0 {
			t.Set(0, 0, 0, 0)
			continue
		}
		best := mat.NegInf
		if i > 0 && j > 0 && k > 0 {
			if v := t.At(i-1, j-1, k-1) + st.ab.At(i, j) + st.ac.At(i, k) + st.bc.At(j, k); v > best {
				best = v
			}
		}
		if i > 0 && j > 0 {
			if v := t.At(i-1, j-1, k) + st.ab.At(i, j) + ge2; v > best {
				best = v
			}
		}
		if i > 0 && k > 0 {
			if v := t.At(i-1, j, k-1) + st.ac.At(i, k) + ge2; v > best {
				best = v
			}
		}
		if j > 0 && k > 0 {
			if v := t.At(i, j-1, k-1) + st.bc.At(j, k) + ge2; v > best {
				best = v
			}
		}
		if i > 0 {
			if v := t.At(i-1, j, k) + ge2; v > best {
				best = v
			}
		}
		if j > 0 {
			if v := t.At(i, j-1, k) + ge2; v > best {
				best = v
			}
		}
		if k > 0 {
			if v := t.At(i, j, k-1) + ge2; v > best {
				best = v
			}
		}
		t.Set(i, j, k, best)
	}
}

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
			aln, err := alignDiagonal(context.Background(), tr, dnaSch, Options{Workers: workers})
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
		aln, err := alignDiagonal(context.Background(), tr, dnaSch, Options{Workers: 3})
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
	if _, err := alignDiagonal(context.Background(), tr, dnaSch, Options{MaxBytes: 64}); err == nil {
		t.Fatal("memory cap not enforced")
	}
}

// BenchmarkScheduleAblation is the schedule ablation: the paper's blocked
// wavefront against the plane-synchronized anti-diagonal schedule (one
// barrier per i+j+k level) on identical inputs, both at GOMAXPROCS
// workers.
func BenchmarkScheduleAblation(b *testing.B) {
	for _, n := range []int{64, 128} {
		tr := relatedTriple(11000+int64(n), n, 0.3)
		cells := float64(tr.A.Len()+1) * float64(tr.B.Len()+1) * float64(tr.C.Len()+1)
		for _, sched := range []struct {
			name string
			run  kernelFunc
		}{{"blocked", AlignParallel}, {"diagonal", alignDiagonal}} {
			b.Run(fmt.Sprintf("schedule=%s/n=%d", sched.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := sched.run(context.Background(), tr, dnaSch, Options{}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(cells*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
			})
		}
	}
}
