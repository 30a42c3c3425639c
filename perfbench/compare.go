package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchDef is the part of BENCHMARK.json the compare mode reads.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// runSet is every record of one workload, trace mode and work budget in
// one directory.
type runSet struct {
	values map[string][]float64
	hosts  map[host]int
	runs   int
}

// loadRecords reads every record file in dir, keyed by workload, trace
// mode and work budget.
func loadRecords(dir string) (map[string]*runSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no record files in %s", dir)
	}
	sets := map[string]*runSet{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		key := fmt.Sprintf("%s trace=%t seconds=%d", rec.Workload, rec.Trace, rec.Seconds)
		s := sets[key]
		if s == nil {
			s = &runSet{values: map[string][]float64{}, hosts: map[host]int{}}
			sets[key] = s
		}
		s.runs++
		s.hosts[rec.Host]++
		for name, m := range rec.Result.Metrics {
			s.values[name] = append(s.values[name], m.Value)
		}
	}
	return sets, nil
}

// compareMain implements "perfbench compare [-bench BENCHMARK.json] A B":
// for each workload and metric it prints the medians and quartiles of the
// runs in A (the base) and B (the change), the relative change of the
// median, and for end-to-end metrics whether it is worse than the
// metric's bound. It exits 1 when any end-to-end metric regressed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [-bench BENCHMARK.json] <base-results-dir> <change-results-dir>")
		return 2
	}
	b, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 2
	}
	var def benchDef
	if err := json.Unmarshal(b, &def); err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %s: %v\n", *benchPath, err)
		return 2
	}
	base, err := loadRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 2
	}
	change, err := loadRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 2
	}
	var keys []string
	for k := range base {
		if change[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	regressed := false
	for _, k := range keys {
		a, c := base[k], change[k]
		fmt.Fprintf(stdout, "== %s: %d base runs, %d change runs\n", k, a.runs, c.runs)
		hosts := map[host]bool{}
		for h := range a.hosts {
			hosts[h] = true
		}
		for h := range c.hosts {
			hosts[h] = true
		}
		if len(hosts) > 1 {
			fmt.Fprintf(stdout, "WARNING: runs come from %d different hosts; their numbers are not comparable:\n", len(hosts))
			for h := range hosts {
				fmt.Fprintf(stdout, "WARNING:   %+v\n", h)
			}
		}
		fmt.Fprintf(stdout, "%-32s %12s %25s %12s %25s %9s %7s  %s\n",
			"metric", "base p50", "base q1..q3", "change p50", "change q1..q3", "change", "bound", "verdict")
		for _, m := range def.EndToEnd {
			if line, worse := compareMetric(m.Name, m.Better, m.Bound, a.values[m.Name], c.values[m.Name]); line != "" {
				fmt.Fprintln(stdout, line)
				regressed = regressed || worse
			}
		}
		for _, m := range def.PerLayer {
			if line, _ := compareMetric(m.Name, m.Better, math.NaN(), a.values[m.Name], c.values[m.Name]); line != "" {
				fmt.Fprintln(stdout, line)
			}
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// compareMetric renders one metric's row. With a bound it also judges
// the change: "regressed" when the change's median is worse than the
// base's by more than the bound, "unresolved" when the base's own
// quartile spread exceeds the bound and the runs do not separate, else
// "better" or "same".
func compareMetric(name, better string, bound float64, base, change []float64) (string, bool) {
	if len(base) == 0 || len(change) == 0 {
		return "", false
	}
	aq1, am, aq3 := quartiles(base)
	cq1, cm, cq3 := quartiles(change)
	rel := math.NaN()
	if am != 0 {
		rel = (cm - am) / math.Abs(am)
	}
	worseBy := rel // positive means worse
	if better == "higher" {
		worseBy = -rel
	}
	verdict, boundCol := "", ""
	worse := false
	if !math.IsNaN(bound) {
		boundCol = fmt.Sprintf("%.2f", bound)
		spread := 0.0
		if am != 0 {
			spread = (aq3 - aq1) / math.Abs(am)
		}
		switch {
		case worseBy > bound:
			verdict, worse = "regressed", true
		case spread > bound && !separated(base, change, better):
			verdict = "unresolved"
		case worseBy < 0:
			verdict = "better"
		default:
			verdict = "same"
		}
	}
	return fmt.Sprintf("%-32s %12.4g %12.4g..%-12.4g %12.4g %12.4g..%-12.4g %+8.1f%% %7s  %s",
		name, am, aq1, aq3, cm, cq1, cq3, 100*rel, boundCol, verdict), worse
}

// separated reports whether every change run reads better than every
// base run.
func separated(base, change []float64, better string) bool {
	bs, cs := sortedCopy(base), sortedCopy(change)
	if better == "higher" {
		return cs[0] > bs[len(bs)-1]
	}
	return cs[len(cs)-1] < bs[0]
}
