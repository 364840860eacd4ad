package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// row matches one printed line of the diff table.
func row(out, workload, metric, verdict string) bool {
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(workload) + `\s+` + regexp.QuoteMeta(metric) + `\s.*\s` + verdict + `$`)
	return re.MatchString(out)
}

// TestDiffClean: base.txt is captured run.sh output (two sparse-data runs,
// so medians; workload named by the header line), clean.jsonl is
// bench-record lines. Host times moved inside their 25 % bounds, one moved
// far the good way, counts are equal: no regression, exit 0.
func TestDiffClean(t *testing.T) {
	var buf bytes.Buffer
	regressed, err := diffResults(&buf, "../../BENCHMARK.json", "testdata/base.txt", "testdata/clean.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if regressed {
		t.Errorf("clean pair reported a regression:\n%s", out)
	}
	for _, want := range [][3]string{
		{"sparse-data", "setup_s", "ok"},         // median(1.30, 1.50) = 1.40 -> 1.60, +14 % < 25 %
		{"sparse-data", "window_s", "improved"},  // 3.20 -> 2.00
		{"sparse-data", "window_allocs", "ok"},   // +0.005 %
		{"dense-ctrl", "delivered_share", "ok"},  // equal
		{"dense-ctrl", "failed/attempted", "ok"}, // 4/400 both sides
	} {
		if !row(out, want[0], want[1], want[2]) {
			t.Errorf("no row %v in:\n%s", want, out)
		}
	}
	if row(out, "sparse-churn", "setup_s", ".*") {
		t.Errorf("a workload neither file ran was printed:\n%s", out)
	}
}

// TestDiffRegressed: a host time past its bound, a higher-is-better share
// that fell by more than 0.1 %, a count rising from zero, and one more failed
// operation each fail the diff on their own row; everything else stays ok.
func TestDiffRegressed(t *testing.T) {
	var buf bytes.Buffer
	regressed, err := diffResults(&buf, "../../BENCHMARK.json", "testdata/base.txt", "testdata/regressed.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !regressed {
		t.Errorf("regressed pair passed:\n%s", out)
	}
	for _, want := range [][3]string{
		{"sparse-data", "window_s", "REGRESSED"},
		{"sparse-data", "setup_s", "ok"},
		{"sparse-data", "failed/attempted", "ok"},
		{"dense-ctrl", "delivered_share", "REGRESSED"},
		{"dense-ctrl", "window_allocs", "REGRESSED"},
		{"dense-ctrl", "failed/attempted", "REGRESSED"},
		{"dense-ctrl", "ctrl_msgs", "ok"},
	} {
		if !row(out, want[0], want[1], want[2]) {
			t.Errorf("no row %v in:\n%s", want, out)
		}
	}
}

// TestDiffInputErrors: unreadable inputs are errors, not clean diffs.
func TestDiffInputErrors(t *testing.T) {
	var buf bytes.Buffer
	if _, err := diffResults(&buf, "../../BENCHMARK.json", "testdata/base.txt", "testdata/absent"); err == nil {
		t.Error("missing result file accepted")
	}
	if _, err := diffResults(&buf, "testdata/base.txt", "testdata/base.txt", "testdata/clean.jsonl"); err == nil {
		t.Error("non-JSON benchmark declaration accepted")
	}
	anon := filepath.Join(t.TempDir(), "anon.txt")
	if err := os.WriteFile(anon, []byte(`{"attempted":1,"failed":0,"metrics":{}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := diffResults(&buf, "../../BENCHMARK.json", "testdata/base.txt", anon); err == nil {
		t.Error("result line with no workload accepted")
	}
}
