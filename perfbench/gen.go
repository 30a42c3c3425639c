package main

import (
	"math/rand"

	repro "repro"
	"repro/internal/seq"
)

// Workload generator parameters. BENCHMARK.json records the same values
// with the reason for each; change both together.
const (
	// align-dna: every triple fits the full lattice under the default
	// byte cap, so Auto plans a packed lattice kernel, not a fallback.
	dnaMinLen, dnaMaxLen = 96, 192
	dnaSubRate           = 0.20 // ≈80% identity to the common ancestor

	// msa-protein: family sizes and lengths of a typical protein-domain
	// family; BLOSUM62 with its affine gaps is the protein default.
	protMinN, protMaxN     = 8, 16
	protMinLen, protMaxLen = 60, 100
	protSubRate            = 0.25 // ≈75% identity to the common ancestor

	// serve-dna: small requests the coalescer and the cache handle.
	serveMinLen, serveMaxLen = 48, 80
	serveSubRate             = 0.20
	// Request mix, in percent; the rest are unique triples.
	serveHotPct, serveNearDupPct = 30, 15
	// nearDupEdits substitutions (in distinct sequences) make a near
	// duplicate: ≈1% of a triple's ≈190 residues, which keeps the k-mer
	// identity to the original above the 0.90 prescreen threshold.
	nearDupEdits = 2
)

// stratified returns count lengths spread evenly over [lo, hi] in a
// seeded order. Every seed then draws the same multiset of lengths, so
// the lattice work of a run barely depends on the seed and run-to-run
// spread measures the system, not the draw.
func stratified(rng *rand.Rand, count, lo, hi int) []int {
	out := make([]int, count)
	for i, p := range rng.Perm(count) {
		out[i] = lo + p*(hi-lo+1)/count
	}
	return out
}

// dnaTriples generates the align-dna input list.
func dnaTriples(seed int64, count int) []repro.Triple {
	rng := rand.New(rand.NewSource(seed))
	g := seq.NewGenerator(seq.DNA, seed+1)
	out := make([]repro.Triple, count)
	for i, n := range stratified(rng, count, dnaMinLen, dnaMaxLen) {
		out[i] = g.RelatedTriple(n, seq.Uniform(dnaSubRate))
	}
	return out
}

// Warm-up inputs have one fixed, mid-range shape, so set-up does the same
// work whatever the seed.

func dnaWarmupTriples(seed int64, count int) []repro.Triple {
	g := seq.NewGenerator(seq.DNA, seed+2)
	out := make([]repro.Triple, count)
	for i := range out {
		out[i] = g.RelatedTriple((dnaMinLen+dnaMaxLen)/2, seq.Uniform(dnaSubRate))
	}
	return out
}

func proteinWarmupFamilies(seed int64, count int) [][]*repro.Sequence {
	g := seq.NewGenerator(seq.Protein, seed+2)
	out := make([][]*repro.Sequence, count)
	for i := range out {
		out[i] = g.RelatedFamily((protMinN+protMaxN)/2, (protMinLen+protMaxLen)/2, seq.Uniform(protSubRate))
	}
	return out
}

// proteinFamilies generates the msa-protein input list. The (size,
// length) pairs come from a fixed draw, so every seed aligns the same
// family shapes; the seed picks their order and residues. Drawing sizes
// and lengths independently per seed would move the median family, and
// with it latency_p50_ms, by the draw alone.
func proteinFamilies(seed int64, count int) [][]*repro.Sequence {
	shapes := rand.New(rand.NewSource(1))
	sizes := stratified(shapes, count, protMinN, protMaxN)
	lens := stratified(shapes, count, protMinLen, protMaxLen)
	order := rand.New(rand.NewSource(seed)).Perm(count)
	g := seq.NewGenerator(seq.Protein, seed+1)
	out := make([][]*repro.Sequence, count)
	for i, j := range order {
		out[i] = g.RelatedFamily(sizes[j], lens[j], seq.Uniform(protSubRate))
	}
	return out
}

// Request kinds of the serve-dna mix.
const (
	kindHot     = "hot"      // repeat of a hot triple: a cache hit
	kindNearDup = "near-dup" // mutated hot triple: a seeded re-align
	kindUnique  = "unique"   // never seen: a miss that fills the cache
)

type serveReq struct {
	kind string
	tr   repro.Triple
}

// serveInputs is everything serve-dna sends: the hot set, the unique
// triples that warm the cache until it evicts, and the timed stream.
type serveInputs struct {
	hot  []repro.Triple
	warm []repro.Triple
	reqs []serveReq
}

func tripleKey(tr repro.Triple) string {
	return tr.A.String() + "|" + tr.B.String() + "|" + tr.C.String()
}

// serveStream generates the serve-dna inputs. The mix is exact, not
// sampled: serveHotPct and serveNearDupPct percent of the requests are
// hot repeats and near duplicates, shuffled among the unique ones. No two
// generated triples are equal, so a request's cache state follows from
// its kind alone.
func serveStream(seed int64, hotN, warmN, requests int) serveInputs {
	rng := rand.New(rand.NewSource(seed))
	g := seq.NewGenerator(seq.DNA, seed+1)
	seen := map[string]bool{}
	fresh := func(lens []int) []repro.Triple {
		out := make([]repro.Triple, 0, len(lens))
		for _, n := range lens {
			for {
				tr := g.RelatedTriple(n, seq.Uniform(serveSubRate))
				if k := tripleKey(tr); !seen[k] {
					seen[k] = true
					out = append(out, tr)
					break
				}
			}
		}
		return out
	}
	in := serveInputs{
		hot:  fresh(stratified(rng, hotN, serveMinLen, serveMaxLen)),
		warm: fresh(stratified(rng, warmN, serveMinLen, serveMaxLen)),
	}
	nHot := requests * serveHotPct / 100
	nNear := requests * serveNearDupPct / 100
	kinds := make([]string, requests)
	for i := range kinds {
		switch {
		case i < nHot:
			kinds[i] = kindHot
		case i < nHot+nNear:
			kinds[i] = kindNearDup
		default:
			kinds[i] = kindUnique
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	uniques := fresh(stratified(rng, requests-nHot-nNear, serveMinLen, serveMaxLen))
	for _, k := range kinds {
		r := serveReq{kind: k}
		switch k {
		case kindHot:
			r.tr = in.hot[rng.Intn(len(in.hot))]
		case kindNearDup:
			for {
				tr := mutate(rng, in.hot[rng.Intn(len(in.hot))], nearDupEdits)
				if key := tripleKey(tr); !seen[key] {
					seen[key] = true
					r.tr = tr
					break
				}
			}
		default:
			r.tr, uniques = uniques[0], uniques[1:]
		}
		in.reqs = append(in.reqs, r)
	}
	return in
}

// mutate substitutes one residue in each of edits distinct sequences of
// tr (edits ≤ 3), returning a new triple.
func mutate(rng *rand.Rand, tr repro.Triple, edits int) repro.Triple {
	seqs := []*repro.Sequence{tr.A, tr.B, tr.C}
	for _, which := range rng.Perm(3)[:edits] {
		s := seqs[which]
		res := s.Residues()
		pos := rng.Intn(len(res))
		letters := "ACGT"
		for {
			if c := letters[rng.Intn(4)]; c != res[pos] {
				res[pos] = c
				break
			}
		}
		seqs[which] = seq.MustNew(s.Name(), string(res), s.Alphabet())
	}
	return repro.Triple{A: seqs[0], B: seqs[1], C: seqs[2]}
}
