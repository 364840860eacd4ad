package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// pimbench pairs runs the repository benchmark on two trees in alternating
// pairs and reports, per workload and end-to-end metric, both sides'
// medians and quartiles, the median of the per-pair head/base ratios and in
// how many pairs head was better. Host times on a shared machine swing
// 10–15 % from run to run, so one run a side says little; pairs run in ABBA
// order (base first, then head first, and so on) so that a drift over the
// session falls on both sides alike.
//
// The base tree, and the head tree when -head names a revision, is the
// revision's files exported under the temporary directory (git archive);
// without -head the head is the working tree. Each side builds its own
// driver through its own benchmarks/run.sh.

// side names the two trees of a pair.
const (
	base = iota
	head
)

var sideNames = [2]string{"base", "head"}

// run is one benchmark run: its parsed metrics, or failed when the driver's
// own output check refused it.
type run struct {
	metrics map[string]float64
	failed  bool
}

// pair is one run of each side on one workload.
type pair [2]run

// abba reports which side runs first in pair i.
func abba(i int) (first, second int) {
	if i%2 == 0 {
		return base, head
	}
	return head, base
}

// quantile is the p-quantile of v by linear interpolation between order
// statistics; NaN for no values.
func quantile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := slices.Clone(v)
	slices.Sort(s)
	x := p * float64(len(s)-1)
	lo := int(x)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (x-float64(lo))*(s[lo+1]-s[lo])
}

// pairStats is one metric over the complete pairs of one workload.
type pairStats struct {
	median, q1, q3 [2]float64
	ratio          float64 // median over pairs of head ÷ base
	wins, n        int     // pairs where head was better
}

// summarize folds one metric over the pairs both of whose runs passed.
func summarize(pairs []pair, metric string, higherBetter bool) pairStats {
	var vals [2][]float64
	var ratios []float64
	st := pairStats{}
	for _, p := range pairs {
		if p[base].failed || p[head].failed {
			continue
		}
		b, bok := p[base].metrics[metric]
		h, hok := p[head].metrics[metric]
		if !bok || !hok {
			continue
		}
		vals[base], vals[head] = append(vals[base], b), append(vals[head], h)
		switch {
		case b == h:
			ratios = append(ratios, 1)
		case b != 0:
			ratios = append(ratios, h/b)
		}
		if (h < b) != higherBetter && h != b {
			st.wins++
		}
		st.n++
	}
	for s := range vals {
		st.median[s], st.q1[s], st.q3[s] = quantile(vals[s], 0.5), quantile(vals[s], 0.25), quantile(vals[s], 0.75)
	}
	st.ratio = quantile(ratios, 0.5)
	return st
}

// hostMetric reports whether a metric measures the host (time, memory)
// rather than the simulation, whose every run must repeat.
func hostMetric(unit string) bool { return unit == "s" || unit == "MB" }

// repeatTolerance is how far two runs of one tree may differ on a simulated
// metric, relative to its size: window_allocs within the 0.01 % the
// driver's own rebuild check allows (the runtime adds a few allocations to
// some runs), every other count and share exactly.
func repeatTolerance(metric string) float64 {
	if metric == "window_allocs" {
		return 1e-4
	}
	return 0
}

// disagreements lists, per side, the simulated metrics that differ between
// two passing runs of that side beyond repeatTolerance.
func disagreements(pairs []pair, decl benchmarkDecl) []string {
	var out []string
	for s := range sideNames {
		for _, m := range decl.EndToEnd {
			if hostMetric(m.Unit) {
				continue
			}
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, p := range pairs {
				if v, ok := p[s].metrics[m.Name]; ok && !p[s].failed {
					lo, hi = min(lo, v), max(hi, v)
				}
			}
			if hi > lo && hi-lo > repeatTolerance(m.Name)*max(math.Abs(lo), math.Abs(hi)) {
				out = append(out, fmt.Sprintf("%s %s from %g to %g", sideNames[s], m.Name, lo, hi))
			}
		}
	}
	return out
}

// failures counts, per side, the runs the driver's output check refused.
func failures(pairs []pair) (n [2]int) {
	for _, p := range pairs {
		for s := range p {
			if p[s].failed {
				n[s]++
			}
		}
	}
	return n
}

// report prints one workload's table.
func report(w io.Writer, workload string, pairs []pair, decl benchmarkDecl) {
	f := failures(pairs)
	fmt.Fprintf(w, "workload %s: %d pairs, agreement failures base %d head %d\n", workload, len(pairs), f[base], f[head])
	fmt.Fprintf(w, "  %-18s %14s %29s %14s %29s %7s %6s\n", "metric", "base", "base q1..q3", "head", "head q1..q3", "ratio", "wins")
	for _, m := range decl.EndToEnd {
		st := summarize(pairs, m.Name, m.Better == "higher")
		if st.n == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-18s %14.8g %29s %14.8g %29s %7.4f %6s\n", m.Name,
			st.median[base], fmt.Sprintf("%.8g..%.8g", st.q1[base], st.q3[base]),
			st.median[head], fmt.Sprintf("%.8g..%.8g", st.q1[head], st.q3[head]),
			st.ratio, fmt.Sprintf("%d/%d", st.wins, st.n))
	}
}

// medianRow is one side's ledger line: every metric's median over that
// side's passing runs, in BENCH_pimperf.jsonl's shape plus the pair count.
func medianRow(label, commit, timestamp, workload string, pairs []pair, s int, units map[string]string) ([]byte, error) {
	vals := map[string][]float64{}
	for _, p := range pairs {
		if p[s].failed {
			continue
		}
		for name, v := range p[s].metrics {
			vals[name] = append(vals[name], v)
		}
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("%s: no passing %s run to record", workload, sideNames[s])
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for name, v := range vals {
		if name != "attempted" && name != "failed" {
			metrics[name] = value{quantile(v, 0.5), units[name]}
		}
	}
	return json.Marshal(struct {
		Label     string           `json:"label"`
		Commit    string           `json:"commit"`
		Timestamp string           `json:"timestamp"`
		Workload  string           `json:"workload"`
		Pairs     int              `json:"pairs"`
		Attempted float64          `json:"attempted"`
		Correct   bool             `json:"correct"`
		Failed    float64          `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{label, commit, timestamp, workload, len(pairs), quantile(vals["attempted"], 0.5), true, quantile(vals["failed"], 0.5), metrics})
}

// parseRun reads one run's output: the last result line's metrics, with the
// operation counts under "attempted" and "failed" as in readResults.
func parseRun(out []byte) (map[string]float64, error) {
	s, err := parseResults(bytes.NewReader(out), "run")
	if err != nil {
		return nil, err
	}
	for _, byMetric := range s {
		m := map[string]float64{}
		for name, v := range byMetric {
			m[name] = v[len(v)-1]
		}
		return m, nil
	}
	return nil, errors.New("the run printed no result line")
}

// export writes rev's files under dir.
func export(repo, rev, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("bash", "-c", `set -o pipefail; git -C "$1" archive "$2" | tar -x -C "$3"`, "export", repo, rev, dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("exporting %s: %v: %s", rev, err, out)
	}
	return nil
}

// benchRun runs one workload on the tree at root. A run the driver's output
// check refused is failed, not an error.
func benchRun(root, workload string, seed int64) (run, error) {
	cmd := exec.Command("bash", "benchmarks/run.sh", "--workload", workload, "--seed", fmt.Sprint(seed))
	cmd.Dir = root
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		if strings.Contains(stderr.String()+out.String(), "check failed") {
			return run{failed: true}, nil
		}
		return run{}, fmt.Errorf("%s: %s: %v\n%s", root, workload, err, stderr.Bytes())
	}
	m, err := parseRun(out.Bytes())
	return run{metrics: m}, err
}

func revParse(repo, rev string) (string, error) {
	out, err := exec.Command("git", "-C", repo, "rev-parse", "--short", rev).Output()
	return strings.TrimSpace(string(out)), err
}

// pairsOpts is what pimbench pairs was asked for.
type pairsOpts struct {
	baseRev, headRev string
	n                int
	workloads        []string
	seed             int64
	record           string
}

func pairsCmd(args []string) {
	fs := flag.NewFlagSet("pairs", flag.ExitOnError)
	var o pairsOpts
	fs.StringVar(&o.baseRev, "base", "", "revision to compare against (required)")
	fs.StringVar(&o.headRev, "head", "", "revision to compare (default: the working tree)")
	fs.IntVar(&o.n, "n", 9, "pairs per workload")
	workload := fs.String("workload", "", "one workload (default: every workload BENCHMARK.json declares)")
	fs.Int64Var(&o.seed, "seed", 42, "benchmark seed")
	fs.StringVar(&o.record, "record", "", "append each side's median row to BENCH_pimperf.jsonl, labelled LABEL-base and LABEL-head")
	fs.Parse(args)
	if o.baseRev == "" || fs.NArg() != 0 || o.n < 1 {
		usage()
	}
	decl, err := readDecl("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if *workload != "" {
		o.workloads = []string{*workload}
	} else {
		for _, w := range decl.Workloads {
			o.workloads = append(o.workloads, w.Name)
		}
	}
	disagree, err := runPairs(o, decl)
	if err != nil {
		fatal(err)
	}
	if len(disagree) > 0 {
		fmt.Fprintln(os.Stderr, "pimbench pairs: runs of one tree disagree on a simulated metric:\n  "+strings.Join(disagree, "\n  "))
		os.Exit(1)
	}
}

// runPairs runs and reports every workload's pairs, recording them when
// asked, and returns the simulated metrics on which runs of one tree
// disagreed.
func runPairs(o pairsOpts, decl benchmarkDecl) (disagree []string, err error) {
	repo, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "pimbench-pairs-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	var roots, commits [2]string
	for s, rev := range [2]string{o.baseRev, o.headRev} {
		if rev == "" {
			roots[s] = repo
			if commits[s], err = revParse(repo, "HEAD"); err == nil {
				commits[s] += "+worktree"
			}
		} else {
			roots[s] = filepath.Join(tmp, sideNames[s])
			if commits[s], err = revParse(repo, rev); err == nil {
				err = export(repo, rev, roots[s])
			}
		}
		if err != nil {
			return nil, err
		}
		fmt.Printf("%s: %s (%s)\n", sideNames[s], commits[s], roots[s])
	}
	units := map[string]string{}
	for _, m := range decl.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, wl := range o.workloads {
		var pairs []pair
		for i := 0; i < o.n; i++ {
			var p pair
			first, second := abba(i)
			for _, s := range [2]int{first, second} {
				if p[s], err = benchRun(roots[s], wl, o.seed); err != nil {
					return nil, err
				}
			}
			pairs = append(pairs, p)
			fmt.Fprintf(os.Stderr, "%s: pair %d/%d done\n", wl, i+1, o.n)
		}
		report(os.Stdout, wl, pairs, decl)
		for _, d := range disagreements(pairs, decl) {
			disagree = append(disagree, wl+": "+d)
		}
		if o.record != "" {
			if err := recordPairs(o.record, commits, wl, pairs, units); err != nil {
				return nil, err
			}
		}
	}
	return disagree, nil
}

// recordPairs appends each side's median row to BENCH_pimperf.jsonl.
func recordPairs(label string, commits [2]string, workload string, pairs []pair, units map[string]string) error {
	ts := time.Now().UTC().Format(time.RFC3339)
	var lines []byte
	for s := range sideNames {
		line, err := medianRow(label+"-"+sideNames[s], commits[s], ts, workload, pairs, s, units)
		if err != nil {
			return err
		}
		lines = append(append(lines, line...), '\n')
	}
	f, err := os.OpenFile("BENCH_pimperf.jsonl", os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.Write(lines); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
