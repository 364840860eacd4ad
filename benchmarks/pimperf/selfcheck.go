package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// runSelfcheck measures the benchmark's own noise the way a driver judges
// it: two sets of n runs per workload, run i of either set on seed+i, the
// sets alternating so that both see the same stretch of host time. Each run
// is a child process, so peak_rss_mb is a whole process's as in a real run.
// It fails when the two medians of any end-to-end metric differ by more than
// the metric's bound.
func runSelfcheck(names []string, seed int64, seconds, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	for _, name := range names {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for set := range sets {
				m, err := childRun(exe, name, seed+int64(i), seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", name, seed+int64(i), err)
				}
				for k, v := range m {
					sets[set][k] = append(sets[set][k], v)
				}
			}
		}
		fmt.Printf("selfcheck %s: 2 sets of %d runs, seeds %d..%d\n", name, n, seed, seed+int64(n)-1)
		fmt.Printf("  %-18s %14s %14s %9s %9s %9s %7s\n", "metric", "median A", "median B", "diff", "iqr A", "iqr B", "bound")
		for _, d := range endToEnd {
			a, b := sets[0][d.name], sets[1][d.name]
			slices.Sort(a)
			slices.Sort(b)
			ma, mb := median(a), median(b)
			// worse is how far set B's median is on the bad side of set A's.
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > d.bound || -worse > d.bound {
				verdict = "  MEDIANS DIFFER BY MORE THAN THE BOUND"
				failed++
			}
			fmt.Printf("  %-18s %14s %14s %8.2f%% %8.2f%% %8.2f%% %6.1f%%%s\n", d.name,
				strconv.FormatFloat(ma, 'g', 8, 64), strconv.FormatFloat(mb, 'g', 8, 64),
				100*(mb-ma)/ma, 100*iqrShare(a), 100*iqrShare(b), 100*d.bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) outside their bound", failed)
	}
	return nil
}

// childRun runs one untraced run of a workload in a child process and
// returns its end-to-end metric values.
func childRun(exe, workload string, seed int64, seconds int) (map[string]float64, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res struct {
		Correct bool  `json:"correct"`
		Failed  int64 `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("last output line: %w", err)
	}
	if !res.Correct || res.Failed != 0 {
		return nil, fmt.Errorf("run reported correct=%v failed=%d", res.Correct, res.Failed)
	}
	m := map[string]float64{}
	for k, v := range res.Metrics {
		m[k] = v.Value
	}
	return m, nil
}

// iqrShare is the distance between the first and third quartile as a share
// of the median, with quartiles as Python's statistics.quantiles(x, n=4)
// gives them (the exclusive method), which is what the driver computes.
func iqrShare(sorted []float64) float64 {
	n := len(sorted)
	if n < 2 {
		return 0
	}
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / median(sorted)
}
