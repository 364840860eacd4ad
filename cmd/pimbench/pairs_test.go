package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// testDecl is the repository's BENCHMARK.json.
func testDecl(t *testing.T) benchmarkDecl {
	t.Helper()
	decl, err := readDecl("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return decl
}

// mkPair is one pair from each side's metrics; a nil side failed its check.
func mkPair(b, h map[string]float64) pair {
	return pair{{metrics: b, failed: b == nil}, {metrics: h, failed: h == nil}}
}

// TestABBAOrder: pairs alternate which side runs first, so each side runs
// first in half of an even number of pairs and a drift hits both alike.
func TestABBAOrder(t *testing.T) {
	var order []int
	for i := 0; i < 4; i++ {
		first, second := abba(i)
		if first == second {
			t.Fatalf("pair %d runs side %d twice", i, first)
		}
		order = append(order, first, second)
	}
	if want := []int{base, head, head, base, base, head, head, base}; !slices.Equal(order, want) {
		t.Errorf("run order %v, want %v", order, want)
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{9, 1, 5, 3, 7}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.25, 3}, {0.75, 7}, {0, 1}, {1, 9}} {
		if got := quantile(v, c.p); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", v, c.p, got, c.want)
		}
	}
	if got := quantile([]float64{1, 2, 3, 4}, 0.5); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if !slices.Equal(v, []float64{9, 1, 5, 3, 7}) {
		t.Error("quantile sorted its argument in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing is not NaN")
	}
}

// TestSummarizePairs: medians and quartiles per side, the median of the
// per-pair ratios (not the ratio of medians), wins by the metric's
// direction, and a pair with a refused run left out of every figure.
func TestSummarizePairs(t *testing.T) {
	rss := func(b, h float64) pair {
		return mkPair(map[string]float64{"peak_rss_mb": b, "delivered_share": 1}, map[string]float64{"peak_rss_mb": h, "delivered_share": 1})
	}
	pairs := []pair{rss(50, 45), rss(52, 44), rss(54, 60), rss(48, 42), rss(51, 46),
		mkPair(nil, map[string]float64{"peak_rss_mb": 1})}
	st := summarize(pairs, "peak_rss_mb", false)
	if st.n != 5 || st.wins != 4 {
		t.Errorf("wins %d/%d, want 4/5", st.wins, st.n)
	}
	if st.median != [2]float64{51, 45} || st.q1 != [2]float64{50, 44} || st.q3 != [2]float64{52, 46} {
		t.Errorf("median %v q1 %v q3 %v", st.median, st.q1, st.q3)
	}
	// Ratios 0.9, 0.846, 1.111, 0.875, 0.902: the median is 45/50.
	if math.Abs(st.ratio-0.9) > 1e-12 {
		t.Errorf("median paired ratio %v, want 0.9", st.ratio)
	}
	// An equal higher-is-better share is neither a win nor a loss.
	if st := summarize(pairs, "delivered_share", true); st.wins != 0 || st.ratio != 1 {
		t.Errorf("equal shares: wins %d, ratio %v", st.wins, st.ratio)
	}
	up := []pair{mkPair(map[string]float64{"delivered_share": 0.9}, map[string]float64{"delivered_share": 1})}
	if st := summarize(up, "delivered_share", true); st.wins != 1 {
		t.Errorf("a higher share lost: wins %d", st.wins)
	}
	if f := failures(pairs); f != [2]int{1, 0} {
		t.Errorf("failures %v, want base 1 head 0", f)
	}
}

// TestDisagreements: runs of one tree must repeat every simulated metric —
// counts exactly, window_allocs within the driver's 0.01 % — while host
// times and memory may vary freely, and a refused run is not compared.
func TestDisagreements(t *testing.T) {
	decl := testDecl(t)
	m := func(ctrl, allocs, rss float64) map[string]float64 {
		return map[string]float64{"ctrl_msgs": ctrl, "window_allocs": allocs, "peak_rss_mb": rss, "setup_s": rss / 10}
	}
	ok := []pair{
		mkPair(m(100, 1000000, 50), m(90, 900000, 45)),
		mkPair(m(100, 1000050, 53), m(90, 900000, 41)),
		mkPair(nil, m(90, 900090, 44)),
	}
	if d := disagreements(ok, decl); len(d) != 0 {
		t.Errorf("repeating runs disagree: %v", d)
	}
	bad := append(slices.Clone(ok), mkPair(m(100, 1000000, 50), m(91, 900000, 45)), mkPair(m(100, 1000200, 50), m(90, 900000, 45)))
	d := disagreements(bad, decl)
	if len(d) != 2 || !strings.HasPrefix(d[0], "base window_allocs") || !strings.HasPrefix(d[1], "head ctrl_msgs") {
		t.Errorf("disagreements %q, want base window_allocs and head ctrl_msgs", d)
	}
}

// TestMedianRowReadsBack: a recorded row carries each metric's median over
// the side's passing runs, its unit and the pair count, and diff reads it
// like a bench-record line.
func TestMedianRowReadsBack(t *testing.T) {
	run := func(rss float64) map[string]float64 {
		return map[string]float64{"peak_rss_mb": rss, "ctrl_msgs": 7, "attempted": 400, "failed": 0}
	}
	pairs := []pair{mkPair(run(50), run(45)), mkPair(run(52), nil), mkPair(run(51), run(47))}
	line, err := medianRow("x-head", "abc1234", "2026-01-01T00:00:00Z", "sparse-churn", pairs, head,
		map[string]string{"peak_rss_mb": "MB", "ctrl_msgs": "count"})
	if err != nil {
		t.Fatal(err)
	}
	var row struct {
		Label   string
		Pairs   int
		Metrics map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(line, &row); err != nil {
		t.Fatal(err)
	}
	if row.Label != "x-head" || row.Pairs != 3 || row.Metrics["peak_rss_mb"].Value != 46 || row.Metrics["peak_rss_mb"].Unit != "MB" {
		t.Errorf("row %s", line)
	}
	s, err := parseResults(bytes.NewReader(line), "row")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := s.median("sparse-churn", "peak_rss_mb"); v != 46 || s["sparse-churn"]["attempted"][0] != 400 {
		t.Errorf("diff reads the row as %v", s)
	}
	if _, err := medianRow("x", "c", "t", "w", []pair{mkPair(run(1), nil)}, head, nil); err == nil {
		t.Error("a side with no passing run recorded a row")
	}
}

// TestParseRun: a run's output is progress lines and one result line; a
// run without one is an error.
func TestParseRun(t *testing.T) {
	out := "pimperf: seed=42\nworkload sparse-churn: attempted=4 failed=0\n  setup_s 1\n" +
		`{"attempted":4,"correct":true,"failed":0,"metrics":{"setup_s":{"value":1.5,"unit":"s"}}}` + "\n"
	m, err := parseRun([]byte(out))
	if err != nil || m["setup_s"] != 1.5 || m["attempted"] != 4 {
		t.Errorf("parseRun = %v, %v", m, err)
	}
	if _, err := parseRun([]byte("pimperf: seed=42\n")); err == nil {
		t.Error("output without a result line parsed")
	}
}

// TestWorktreeCommitStamp: the working tree is stamped "+worktree" only when
// it differs from HEAD, and a change to BENCH_pimperf.jsonl, which -record
// writes, does not count.
func TestWorktreeCommitStamp(t *testing.T) {
	repo := t.TempDir()
	git := func(args ...string) {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-C", repo, "-c", "user.name=t", "-c", "user.email=t@t"}, args...)...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v: %s", args, err, out)
		}
	}
	write := func(name, text string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(repo, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	git("init", "-q")
	write("a.go", "package a\n")
	write("BENCH_pimperf.jsonl", "")
	git("add", ".")
	git("commit", "-q", "-m", "x")
	head, err := revParse(repo, "HEAD")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		file, want string
	}{
		{"", head},
		{"BENCH_pimperf.jsonl", head},
		{"a.go", head + "+worktree"},
	} {
		if c.file != "" {
			write(c.file, "changed\n")
		}
		if got, err := worktreeCommit(repo); err != nil || got != c.want {
			t.Errorf("after changing %q: stamped %q (%v), want %q", c.file, got, err, c.want)
		}
	}
}
