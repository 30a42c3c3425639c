package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	repro "repro"
)

func tripleKeys(trs []repro.Triple) []string {
	out := make([]string, len(trs))
	for i, tr := range trs {
		out[i] = tripleKey(tr)
	}
	return out
}

func TestGeneratorsDeterministic(t *testing.T) {
	if a, b := tripleKeys(dnaTriples(7, 30)), tripleKeys(dnaTriples(7, 30)); !reflect.DeepEqual(a, b) {
		t.Fatal("dnaTriples differs between calls with the same seed")
	}
	if a, b := tripleKeys(dnaTriples(7, 30)), tripleKeys(dnaTriples(8, 30)); reflect.DeepEqual(a, b) {
		t.Fatal("dnaTriples ignores the seed")
	}

	famKeys := func(fams [][]*repro.Sequence) []string {
		var out []string
		for _, f := range fams {
			for _, s := range f {
				out = append(out, s.String())
			}
			out = append(out, "/")
		}
		return out
	}
	if a, b := famKeys(proteinFamilies(3, 12)), famKeys(proteinFamilies(3, 12)); !reflect.DeepEqual(a, b) {
		t.Fatal("proteinFamilies differs between calls with the same seed")
	}

	streamKeys := func(in serveInputs) []string {
		out := append(tripleKeys(in.hot), tripleKeys(in.warm)...)
		for _, r := range in.reqs {
			out = append(out, r.kind+":"+tripleKey(r.tr))
		}
		return out
	}
	a, b := serveStream(5, 16, 40, 200), serveStream(5, 16, 40, 200)
	if !reflect.DeepEqual(streamKeys(a), streamKeys(b)) {
		t.Fatal("serveStream differs between calls with the same seed")
	}
	kinds := map[string]int{}
	for _, r := range a.reqs {
		kinds[r.kind]++
	}
	if kinds[kindHot] != 60 || kinds[kindNearDup] != 30 || kinds[kindUnique] != 110 {
		t.Fatalf("serve mix %v, want 60 hot, 30 near-dup, 110 unique of 200", kinds)
	}
}

func TestStratifiedLengthsCoverRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lens := stratified(rng, 97, dnaMinLen, dnaMaxLen)
	seen := map[int]bool{}
	for _, n := range lens {
		if n < dnaMinLen || n > dnaMaxLen {
			t.Fatalf("length %d outside [%d, %d]", n, dnaMinLen, dnaMaxLen)
		}
		seen[n] = true
	}
	if len(seen) != 97 {
		t.Fatalf("97 draws over 97 lengths hit %d distinct lengths, want all", len(seen))
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 1; n <= 400; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() // distinct with probability 1
		}
		tl := tailPercentile(xs)
		beyond := 0
		for _, x := range xs {
			if x > tl.Value {
				beyond++
			}
		}
		if n <= minBeyond {
			if beyond != 0 || tl.Beyond != 0 {
				t.Fatalf("n=%d: small sample must report its maximum", n)
			}
			continue
		}
		if beyond < minBeyond || tl.Beyond != beyond {
			t.Fatalf("n=%d: %d samples beyond p%.2f (reported %d), want ≥ %d", n, beyond, tl.Pct, tl.Beyond, minBeyond)
		}
		// The next higher rank must leave fewer than minBeyond beyond it,
		// or the rule did not pick the highest percentile.
		if beyond-1 >= minBeyond {
			t.Fatalf("n=%d: a higher percentile also keeps %d beyond", n, beyond-1)
		}
	}
}

func TestPerTripleTakesMedianOfRuns(t *testing.T) {
	// Two triples, three runs each: run r of triple i is lat[r*2+i].
	p := pass{lat: []float64{1, 10, 9, 11, 2, 30}}
	if got, want := perTriple(p, 2), []float64{2, 11}; !reflect.DeepEqual(got, want) {
		t.Fatalf("perTriple = %v, want %v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "op", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(20), End: ms(50)},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: ms(90), End: ms(120)}, // clipped at 100
		{ID: 5, Parent: 3, Name: "d", Start: ms(25), End: ms(35)},
	}
	self := selfTimes(spans)
	// op: children cover [10,50] and [90,100] = 50ms.
	want := map[int64]time.Duration{1: ms(50), 2: ms(20), 3: ms(20), 4: ms(30), 5: ms(10)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %v, want %v", id, self[id], w)
		}
	}
}

func TestVerificationRejectsCorruptedScore(t *testing.T) {
	g := repro.NewGenerator(repro.DNA, 11)
	tr := g.RelatedTriple(40, repro.MutationModel{SubstitutionRate: 0.2})
	sch, err := repro.DefaultScheme(repro.DNA)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.Align(tr, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := repro.Align(tr, repro.Options{Algorithm: repro.AlgorithmLinear})
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyTriple(tr, res, ref.Score, sch); err != nil {
		t.Fatalf("correct result rejected: %v", err)
	}
	aln := *res.Alignment
	bad := *res
	bad.Alignment = &aln
	bad.Score++
	if verifyTriple(tr, &bad, ref.Score, sch) == nil {
		t.Fatal("verifyTriple accepted a corrupted score")
	}
	ra, rb, rc := res.Rows()
	if err := verifyServed(res.Score, [3]string{ra, rb, rc}, ref); err != nil {
		t.Fatalf("correct served answer rejected: %v", err)
	}
	if verifyServed(res.Score-1, [3]string{ra, rb, rc}, ref) == nil {
		t.Fatal("verifyServed accepted a corrupted score")
	}

	fam := proteinFamilies(4, 1)[0]
	psch, err := repro.DefaultScheme(repro.Protein)
	if err != nil {
		t.Fatal(err)
	}
	m, err := repro.AlignMSA(context.Background(), fam, repro.MSAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyMSA(fam, m, psch); err != nil {
		t.Fatalf("correct MSA rejected: %v", err)
	}
	badM := *m
	badM.Score--
	if verifyMSA(fam, &badM, psch) == nil {
		t.Fatal("verifyMSA accepted a corrupted score")
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	slower := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	if _, worse := compareMetric("ops_per_s", "higher", 0.1, base, slower); !worse {
		t.Fatal("a 20% throughput drop under a 10% bound is not a regression")
	}
	if _, worse := compareMetric("latency_p50_ms", "lower", 0.1, base, slower); worse {
		t.Fatal("a 20% latency drop reported as a regression")
	}
	if _, worse := compareMetric("ops_per_s", "higher", 0.25, base, slower); worse {
		t.Fatal("a 20% drop under a 25% bound reported as a regression")
	}
}

// TestBenchmarkJSONMatchesMetrics pins BENCHMARK.json to the metrics the
// program emits, so neither can change without the other.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		benchDef
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	var got, want []metricDef
	for _, m := range def.EndToEnd {
		got = append(got, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program emits %v", got, endToEnd)
	}
	got = nil
	for _, m := range def.PerLayer {
		got = append(got, metricDef{m.Name, m.Unit})
	}
	want = perLayer
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json per_layer %v, program emits %v", got, want)
	}
	for _, w := range def.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(def.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, program has %d", len(def.Workloads), len(workloads))
	}
}
