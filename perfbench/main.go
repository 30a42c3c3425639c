// Command perfbench is the repository benchmark. It drives seeded
// workloads through the public entry points — repro.AlignContext,
// repro.AlignMSA, and alignd in process behind the retrying client —
// verifies every output, and prints the end-to-end metrics (untraced run)
// or the per-layer metrics (traced run) named in BENCHMARK.json.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload align-dna --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh compare <results-dir-A> <results-dir-B>
//
// --seconds sets a fixed work budget, not a timer: each workload aligns a
// seeded input list whose size is proportional to it, calibrated so the
// timed phases take about that long on a 2-core x86-64 host. Every run
// with the same seed and seconds therefore aligns the same cells and
// families, whatever the host's speed.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are the
// human-readable report, starting with the host fingerprint. Each run
// also writes a record file (and, traced, a span file) under --out. A
// verification mismatch prints the result with correct=false and exits 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, as BENCHMARK.json names
// them; every workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"mcells_per_s", "Mcells/s"},
	{"mcells_per_s_1w", "Mcells/s"},
	{"peak_heap_mib", "MiB"},
	{"sp_gap_per_family", "score"},
}

// kernels are the registered kernels the three workloads run: the linear
// Auto default (parallel-packed), the seeded near-duplicate re-align
// (bounded), and the affine pair the protein merges plan (affine inside
// fanned batches, affine-parallel for merges that run alone). A kernel
// outside this list is named in the report.
var kernels = []string{"parallel-packed", "bounded", "affine", "affine-parallel"}

// perLayer lists the metrics of a traced run, named by module.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"repro.overhead_us", "us"},
		{"seq.sketch_us", "us"},
		{"plan.resolve_us", "us"},
		{"plan.est_ratio_p50", "ratio"},
		{"plan.est_ratio_p90", "ratio"},
	}
	for _, k := range kernels {
		defs = append(defs, metricDef{"plan.kernel_share." + k, "share"})
	}
	defs = append(defs, metricDef{"core.kernel_ms_p50", "ms"})
	for _, k := range kernels {
		defs = append(defs, metricDef{"core.mcells_per_s." + k, "Mcells/s"})
	}
	return append(defs,
		metricDef{"core.bounded_eval_fraction", "share"},
		metricDef{"wavefront.keep_ratio", "share"},
		metricDef{"wavefront.steal_ratio", "share"},
		metricDef{"wavefront.solo_runs", "count"},
		metricDef{"wavefront.blocks_per_op", "count"},
		metricDef{"msa.tree_ms", "ms"},
		metricDef{"msa.plan_ms", "ms"},
		metricDef{"msa.merge_ms", "ms"},
		metricDef{"msa.centerstar_ms", "ms"},
		metricDef{"msa.refine_ms", "ms"},
		metricDef{"msa.batched_ratio", "share"},
		metricDef{"msa.merge_batch_mean", "count"},
		metricDef{"resultcache.get_us", "us"},
		metricDef{"resultcache.nearest_us", "us"},
		metricDef{"resultcache.put_us", "us"},
		metricDef{"resultcache.entries", "count"},
		metricDef{"server.handler_ms.hit", "ms"},
		metricDef{"server.handler_ms.miss", "ms"},
		metricDef{"server.handler_ms.near-dup", "ms"},
		metricDef{"server.hit_ratio", "share"},
		metricDef{"server.neardup_patch_ratio", "share"},
		metricDef{"server.coalesce_batch_mean", "count"},
		metricDef{"server.shed", "count"},
		metricDef{"server.degraded", "count"},
		metricDef{"client.transport_us", "us"},
		metricDef{"runtime.alloc_bytes_per_op", "B"},
		metricDef{"runtime.gc_cycles_per_s", "1/s"},
		metricDef{"trace.overhead_pct", "%"},
	)
}()

// runConfig is what a workload needs from the command line.
type runConfig struct {
	seed    int64
	seconds int
	trace   bool
	nproc   int // GOMAXPROCS: the worker and caller count
}

// report is a workload's outcome before it is rendered.
type report struct {
	attempted, failed int
	problems          []string           // verification mismatches
	e2e               map[string]float64 // untraced runs
	layer             map[string]float64 // traced runs
	tail              tail               // latency_tail_ms detail
	notes             []string           // extra report lines
	spans             []span
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// mismatch records a verification failure as a failed operation.
func (r *report) mismatch(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type workloadFunc func(ctx context.Context, cfg runConfig) (*report, error)

var workloads = map[string]workloadFunc{
	"align-dna":   runAlignDNA,
	"msa-protein": runMSAProtein,
	"serve-dna":   runServeDNA,
}

// setupReps is how many times each workload sets up; setup_s is the
// median, so one slow boot does not move it. A traced run does not
// report setup_s and sets up once.
func (c runConfig) setupReps() int {
	if c.trace {
		return 1
	}
	return 3
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// host fingerprints the machine: numbers from different hosts are not
// comparable, so every run prints and records it.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
	Lanes      string `json:"lanes"`
	GOARCH     string `json:"goarch"`
}

func fingerprint() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Lanes:      lanePath(),
		GOARCH:     runtime.GOARCH,
	}
}

// record is the file each run leaves under --out for the compare mode.
type record struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  int      `json:"seconds"`
	Trace    bool     `json:"trace"`
	Host     host     `json:"host"`
	Result   result   `json:"result"`
	Notes    []string `json:"notes,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: align-dna, msa-protein or serve-dna")
		seed    = fs.Int64("seed", 1, "input seed")
		seconds = fs.Int("seconds", 10, "work budget: inputs sized to take about this long on a 2-core host")
		trace   = fs.Int("trace", 0, "1 runs traced and prints the per-layer metrics; 0 prints the end-to-end metrics")
		out     = fs.String("out", filepath.Join(".bench_build", "out"), "directory for record and span files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload align-dna|msa-protein|serve-dna, --seconds ≥ 1, --trace 0|1\n")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, nproc: runtime.GOMAXPROCS(0)}
	h := fingerprint()
	fmt.Fprintf(stdout, "# host: nproc=%d gomaxprocs=%d go=%s goarch=%s cpu=%q lanes=%s\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.GOARCH, h.CPU, h.Lanes)
	fmt.Fprintf(stdout, "# workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *trace)

	rep, err := wl(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res, notes := render(rep, cfg.trace)
	for _, n := range append(rep.notes, notes...) {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	stem := fmt.Sprintf("%s.seed%d.trace%d", *name, *seed, *trace)
	if cfg.trace {
		path := filepath.Join(*out, "spans", stem+".jsonl")
		if err := writeSpans(path, rep.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans: %d written to %s\n", len(rep.spans), path)
	}
	rec := record{Workload: *name, Seed: *seed, Seconds: *seconds, Trace: cfg.trace, Host: h, Result: res, Notes: rep.notes}
	if err := writeRecord(filepath.Join(*out, "results", stem+".json"), rec); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// render turns a report into the result line plus the report lines that
// go above it: every metric with its unit, the tail's percentile and
// sample count, the error rate, and the first verification mismatches.
func render(rep *report, traced bool) (result, []string) {
	res := result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	defs, vals := endToEnd, rep.e2e
	if traced {
		defs, vals = perLayer, rep.layer
	}
	var lines, absent []string
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			absent = append(absent, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		lines = append(lines, fmt.Sprintf("%-32s %14.4f %s", d.name, v, d.unit))
	}
	if !traced {
		t := rep.tail
		lines = append(lines, fmt.Sprintf("latency_tail_ms is p%.2f: %d samples, %d beyond it", t.Pct, t.Samples, t.Beyond))
	}
	if len(absent) > 0 {
		sort.Strings(absent)
		lines = append(lines, "not measured on this workload, reported as 0: "+strings.Join(absent, " "))
	}
	rate := 0.0
	if rep.attempted > 0 {
		rate = float64(rep.failed) / float64(rep.attempted)
	}
	lines = append(lines, fmt.Sprintf("error_rate %.6f (%d failed of %d attempted)", rate, rep.failed, rep.attempted))
	for i, p := range rep.problems {
		if i == 10 {
			lines = append(lines, fmt.Sprintf("... %d more mismatches", len(rep.problems)-10))
			break
		}
		lines = append(lines, "MISMATCH: "+p)
	}
	return res, lines
}

func writeRecord(path string, rec record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("record file: %w", err)
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("record file: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("record file: %w", err)
	}
	return nil
}

// setUp runs a workload's set-up cfg.setupReps() times and records the
// median wall time as setup_s. fn must leave the workload ready to time.
func setUp(cfg runConfig, rep *report, fn func() error) error {
	var times []float64
	for i := 0; i < cfg.setupReps(); i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	rep.e2e["setup_s"] = median(times)
	return nil
}
