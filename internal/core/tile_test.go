package core

import "testing"

func TestAdaptiveTileDimsLongK(t *testing.T) {
	ti, tj, tk := AdaptiveTileDims(512, 512, 512, 4, 4)
	if tk != tileMaxK {
		t.Fatalf("tk = %d, want the long-k cap %d", tk, tileMaxK)
	}
	if tk <= ti || tk <= tj {
		t.Fatalf("tile %dx%dx%d is not long in k", ti, tj, tk)
	}
	if ti < tileMinEdge || ti > tileMaxEdge || tj < tileMinEdge || tj > tileMaxEdge {
		t.Fatalf("cross-section %dx%d outside [%d, %d]", ti, tj, tileMinEdge, tileMaxEdge)
	}
}

func TestAdaptiveTileDimsShortK(t *testing.T) {
	_, _, tk := AdaptiveTileDims(300, 300, 20, 2, 4)
	if tk != 20 {
		t.Fatalf("tk = %d, want the full short axis 20", tk)
	}
}

func TestAdaptiveTileDimsAffineSmaller(t *testing.T) {
	li, lj, _ := AdaptiveTileDims(512, 512, 512, 2, 4)
	ai, aj, _ := AdaptiveTileDims(512, 512, 512, 2, 28)
	if ai*aj > li*lj {
		t.Fatalf("affine cross-section %dx%d exceeds linear %dx%d despite 7x cell cost",
			ai, aj, li, lj)
	}
}

func TestAdaptiveTileDimsFeedsWorkers(t *testing.T) {
	for _, w := range []int{1, 2, 4, 8, 16} {
		ti, tj, _ := AdaptiveTileDims(400, 400, 400, w, 4)
		lanes := blocksAlong(400, ti) * blocksAlong(400, tj)
		if lanes < 2*w && (ti > tileMinEdge || tj > tileMinEdge) {
			t.Fatalf("workers=%d: %d i×j lanes from %dx%d tiles, want >= %d", w, lanes, ti, tj, 2*w)
		}
	}
}

func TestAdaptiveTileDimsOneWorkerWholePlane(t *testing.T) {
	for _, c := range [][3]int{{97, 97, 97}, {513, 33, 700}, {1, 1, 1}, {5, 0, 5}} {
		for _, w := range []int{1, 0, -3} {
			ti, tj, tk := AdaptiveTileDims(c[0], c[1], c[2], w, 4)
			if ti != 1 || tj != max(c[1], 1) || tk != max(c[2], 1) {
				t.Fatalf("dims %v workers=%d: tile %dx%dx%d, want the whole-plane 1x%dx%d",
					c, w, ti, tj, tk, max(c[1], 1), max(c[2], 1))
			}
		}
	}
}

func TestAdaptiveTileDimsDegenerate(t *testing.T) {
	for _, c := range [][3]int{{1, 1, 1}, {0, 5, 5}, {5, 0, 5}, {5, 5, 0}, {2, 3, 1}} {
		ti, tj, tk := AdaptiveTileDims(c[0], c[1], c[2], 4, 4)
		if ti < 1 || tj < 1 || tk < 1 {
			t.Fatalf("dims %v: non-positive tile %dx%dx%d", c, ti, tj, tk)
		}
	}
	// Bad inputs must not panic and must still yield usable tiles.
	ti, tj, tk := AdaptiveTileDims(100, 100, 100, 0, 0)
	if ti < 1 || tj < 1 || tk < 1 {
		t.Fatalf("defaulted inputs produced tile %dx%dx%d", ti, tj, tk)
	}
}

func TestOptionsTileDimsCubicOverride(t *testing.T) {
	o := Options{BlockSize: 24}
	ti, tj, tk := o.tileDims(500, 500, 500, 4)
	if ti != 24 || tj != 24 || tk != 24 {
		t.Fatalf("BlockSize override gave %dx%dx%d, want cubic 24", ti, tj, tk)
	}
	tj, tk = o.tile2D(500, 500, 4)
	if tj != 24 || tk != 24 {
		t.Fatalf("BlockSize 2D override gave %dx%d, want 24x24", tj, tk)
	}
}

func TestOptionsTileDimsAdaptiveDefault(t *testing.T) {
	o := Options{Workers: 4}
	ti, tj, tk := o.tileDims(512, 512, 512, 4)
	ai, aj, ak := AdaptiveTileDims(512, 512, 512, 4, 4)
	if ti != ai || tj != aj || tk != ak {
		t.Fatalf("tileDims = %dx%dx%d, want adaptive %dx%dx%d", ti, tj, tk, ai, aj, ak)
	}
}
