package core

import (
	"math"

	"repro/internal/wavefront"
)

// Adaptive non-cubic tiling.
//
// The lattices are laid out with k as the unit-stride (innermost) axis, so a
// tile that is long in k walks contiguous lanes and amortizes each cache-line
// fetch over a full line of cells, while the i and j edges only set how much
// of the (i-1)- and (j-1)-plane state must stay resident while the tile
// fills. The heuristic therefore stretches tk as far as the sequence allows
// and sizes the i×j cross-section so a tile's working set — roughly two
// j×k predecessor faces per lattice — fits in a half of L2. Finally the
// cross-section is shrunk until the i×j block grid is wide enough to feed
// every worker: the wavefront's mid-run anti-diagonal holds on the order of
// blocksAlong(i)×blocksAlong(j) independent blocks (one per (bi, bj) lane),
// so that product must comfortably exceed the worker count or the schedule
// starves regardless of cache behaviour.

// tileL2Bytes is the per-core cache budget the tile working set is sized
// against — half of a conservative 512 KiB L2, leaving room for the score
// tables and scheduler state.
const tileL2Bytes = 256 << 10

// tileMaxK caps the k tile edge; beyond ~128 lanes the per-tile scheduling
// cost is already negligible and longer tiles only reduce wavefront width.
// tileMinK is the floor the schedule-depth rule may shrink it back to —
// below ~32 lanes the unit-stride amortization that justifies long-k tiles
// is gone.
const (
	tileMaxK = 128
	tileMinK = 32
)

// tileMinEdge / tileMaxEdge clamp the i and j tile edges.
const (
	tileMinEdge = 4
	tileMaxEdge = 64
)

// tileBlocksPerWorker is the schedule-depth target: the list-scheduled
// makespan of an nbi×nbj×nbk wavefront only approaches total/workers when
// the pipeline fill and drain (the ramp along the anti-diagonals) is a
// small fraction of the work, which empirically (measured with
// wavefront.Simulate across shapes) needs on the order of 100 blocks per
// worker. Below that the grid is subdivided further even though each tile
// individually would be cache-better.
const tileBlocksPerWorker = 96

// blocksAlong returns the number of tiles covering an axis of length n.
func blocksAlong(n, tile int) int {
	if n <= 0 {
		return 0
	}
	return (n + tile - 1) / tile
}

// AdaptiveTileDims picks tile edges (ti, tj, tk) for an ni×nj×nk lattice
// filled by the given number of workers, where each lattice cell costs
// bytesPerCell bytes (summed over all lattices the kernel fills — 4 for the
// single linear-gap tensor, 28 for the seven affine-gap tensors). The k
// edge is stretched along the unit-stride axis; the i and j edges are sized
// to an L2 working-set budget and then shrunk until the i×j block grid
// offers at least 2×workers lanes of parallelism. One worker (or a
// non-positive count) gets the whole-plane tiling (1, nj, nk): with no
// wavefront to feed, the plain plane-by-plane fill keeps every k lane
// unbroken and pays one block dispatch per i-plane.
func AdaptiveTileDims(ni, nj, nk, workers, bytesPerCell int) (ti, tj, tk int) {
	if workers <= 1 {
		return 1, max(nj, 1), max(nk, 1)
	}
	if bytesPerCell <= 0 {
		bytesPerCell = 4
	}
	tk = nk
	if tk > tileMaxK {
		tk = tileMaxK
	}
	if tk < 1 {
		tk = 1
	}
	// Working set ≈ 2 predecessor faces of tj×tk cells each (the (i-1) plane
	// slab and the in-flight plane) per lattice; target half the budget per
	// face and solve for a square i×j cross-section.
	e := int(math.Sqrt(float64(tileL2Bytes / 2 / bytesPerCell / tk)))
	if e < tileMinEdge {
		e = tileMinEdge
	}
	if e > tileMaxEdge {
		e = tileMaxEdge
	}
	ti, tj = e, e
	// Widen the wavefront: halve the larger of ti/tj until the i×j block
	// grid can keep every worker busy mid-run (the peak anti-diagonal holds
	// at most one block per (bi, bj) lane).
	for blocksAlong(ni, ti)*blocksAlong(nj, tj) < 2*workers && (ti > tileMinEdge || tj > tileMinEdge) {
		if ti >= tj && ti > tileMinEdge {
			ti /= 2
		} else {
			tj /= 2
		}
		if ti < tileMinEdge {
			ti = tileMinEdge
		}
		if tj < tileMinEdge {
			tj = tileMinEdge
		}
	}
	// Deepen the schedule: on small lattices even a lane-sufficient grid is
	// too shallow to amortize the wavefront ramp. Give k back first (its
	// locality is the cheapest to sacrifice past tileMinK), then the
	// cross-section.
	for blocksAlong(ni, ti)*blocksAlong(nj, tj)*blocksAlong(nk, tk) < tileBlocksPerWorker*workers {
		switch {
		case tk > tileMinK:
			tk /= 2
			if tk < tileMinK {
				tk = tileMinK
			}
		case ti >= tj && ti > tileMinEdge:
			ti /= 2
		case tj > tileMinEdge:
			tj /= 2
		default:
			return ti, tj, tk // tiles bottomed out; the lattice is just small
		}
	}
	return ti, tj, tk
}

// tileDims resolves the tile shape for an ni×nj×nk lattice: a planner-
// negotiated Options.TileDims wins outright, an explicit Options.BlockSize
// remains a cubic override (preserving the historical contract and the F3
// block-size sweep), and otherwise the adaptive heuristic picks a
// non-cubic long-k shape.
func (o Options) tileDims(ni, nj, nk, bytesPerCell int) (ti, tj, tk int) {
	if o.TileDims[0] > 0 && o.TileDims[1] > 0 && o.TileDims[2] > 0 {
		return o.TileDims[0], o.TileDims[1], o.TileDims[2]
	}
	if o.BlockSize > 0 {
		return o.BlockSize, o.BlockSize, o.BlockSize
	}
	return AdaptiveTileDims(ni, nj, nk, wavefront.Workers(o.Workers), bytesPerCell)
}

// tile2D resolves the tile shape for an nj×nk plane sweep (the
// linear-space Hirschberg kernel, which re-fills j×k planes): the adaptive
// heuristic with a singleton i axis.
func (o Options) tile2D(nj, nk, bytesPerCell int) (tj, tk int) {
	if o.BlockSize > 0 {
		return o.BlockSize, o.BlockSize
	}
	_, tj, tk = AdaptiveTileDims(1, nj, nk, wavefront.Workers(o.Workers), bytesPerCell)
	return tj, tk
}
