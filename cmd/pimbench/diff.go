package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// pimbench diff compares two files of pimperf results against the bounds
// BENCHMARK.json declares. A file is either the captured output of one or
// more `bash benchmarks/run.sh --workload …` runs (each result line is the
// final JSON object of a run, named by the `workload <name>: …` line above
// it) or lines of BENCH_pimperf.jsonl, which carry their workload themselves
// (`make bench-record`). Several results of one workload are reduced to
// their per-metric median.

// benchmarkDecl is what diff reads of BENCHMARK.json; it never writes it.
type benchmarkDecl struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// resultLine is one pimperf result.
type resultLine struct {
	Workload  string                             `json:"workload"`
	Attempted float64                            `json:"attempted"`
	Failed    float64                            `json:"failed"`
	Metrics   map[string]struct{ Value float64 } `json:"metrics"`
}

// samples is one side of the comparison: workload → metric → one value per
// result line. The operation counts ride along under the names "attempted"
// and "failed", which no declared metric uses.
type samples map[string]map[string][]float64

func readResults(path string) (samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := samples{}
	sc := bufio.NewScanner(f)
	current := ""
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "workload "); ok {
			current, _, _ = strings.Cut(rest, ":")
			continue
		}
		if !strings.HasPrefix(line, "{") {
			continue
		}
		r := resultLine{Workload: current}
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, n, err)
		}
		if r.Workload == "" {
			return nil, fmt.Errorf("%s:%d: result line names no workload", path, n)
		}
		if s[r.Workload] == nil {
			s[r.Workload] = map[string][]float64{}
		}
		m := s[r.Workload]
		for name, v := range r.Metrics {
			m[name] = append(m[name], v.Value)
		}
		m["attempted"] = append(m["attempted"], r.Attempted)
		m["failed"] = append(m["failed"], r.Failed)
	}
	return s, sc.Err()
}

func (s samples) median(workload, metric string) (float64, bool) {
	v := append([]float64(nil), s[workload][metric]...)
	if len(v) == 0 {
		return 0, false
	}
	sort.Float64s(v)
	return (v[(len(v)-1)/2] + v[len(v)/2]) / 2, true
}

// failedShare is failed ÷ attempted operations over all of a workload's runs.
func (s samples) failedShare(workload string) float64 {
	var failed, attempted float64
	for i, n := range s[workload]["attempted"] {
		attempted += n
		failed += s[workload]["failed"][i]
	}
	return failed / max(attempted, 1)
}

// diffResults prints, per workload × end-to-end metric, the two medians, the
// relative change and a verdict, and reports whether b regressed: a metric
// worse than a's by more than its bound, a metric a has and b lacks, or a
// larger share of failed operations.
func diffResults(w io.Writer, benchmarkPath, aPath, bPath string) (regressed bool, err error) {
	raw, err := os.ReadFile(benchmarkPath)
	if err != nil {
		return false, err
	}
	var decl benchmarkDecl
	if err := json.Unmarshal(raw, &decl); err != nil {
		return false, fmt.Errorf("%s: %v", benchmarkPath, err)
	}
	var side [2]samples
	for i, path := range []string{aPath, bPath} {
		if side[i], err = readResults(path); err != nil {
			return false, err
		}
	}
	a, b := side[0], side[1]
	const row = "%-15s %-18s %14.10g %14.10g %9s %6s  %s\n"
	fmt.Fprintf(w, "%-15s %-18s %14s %14s %9s %6s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, wl := range decl.Workloads {
		if a[wl.Name] == nil && b[wl.Name] == nil {
			continue
		}
		for _, m := range decl.EndToEnd {
			av, aok := a.median(wl.Name, m.Name)
			bv, bok := b.median(wl.Name, m.Name)
			if !aok || !bok {
				if aok {
					regressed = true
					fmt.Fprintf(w, row, wl.Name, m.Name, av, math.NaN(), "", "", "MISSING")
				}
				continue
			}
			change := 0.0
			if av != bv {
				change = (bv - av) / math.Abs(av)
			}
			// worse > 0 means b is worse than a, as a share of a.
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict, regressed = "REGRESSED", true
			case worse < -m.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(w, row, wl.Name, m.Name, av, bv,
				fmt.Sprintf("%+.2f%%", 100*change), fmt.Sprintf("%.1f%%", 100*m.Bound), verdict)
		}
		verdict := "ok"
		if b.failedShare(wl.Name) > a.failedShare(wl.Name) {
			verdict, regressed = "REGRESSED", true
		}
		fmt.Fprintf(w, row, wl.Name, "failed/attempted", a.failedShare(wl.Name), b.failedShare(wl.Name), "", "", verdict)
	}
	return regressed, nil
}
