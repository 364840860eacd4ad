package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"
)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclarationsMatch holds BENCHMARK.json and the tables in main.go to
// each other: same workloads, same metrics, same units, directions and
// bounds, in the same order.
func TestDeclarationsMatch(t *testing.T) {
	f := loadBenchmarkFile(t)
	if f.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, the window lengths are tuned for %d", f.RunSeconds, nominalSeconds)
	}
	if len(f.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d specs", len(f.Workloads), len(specs))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the allowed alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range f.Workloads {
		name(w.Name)
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in specs", i, w.Name, specs[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got []declared, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, %d in main.go", kind, len(got), len(want))
		}
		for i, d := range got {
			name(d.Name)
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s %s: unit %q is outside the allowed alphabet", kind, d.Name, d.Unit)
			}
			w := want[i]
			if d.Name != w.name || d.Unit != w.unit || d.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, main.go %s/%s/%s", kind, i, d.Name, d.Unit, d.Better, w.name, w.unit, w.better)
			}
			switch {
			case bounded && (d.Bound == nil || *d.Bound != w.bound || *d.Bound < 0 || *d.Bound > 0.25):
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in main.go", kind, d.Name, d.Bound, w.bound)
			case !bounded && d.Bound != nil:
				t.Errorf("%s %s: a layer metric has no bound", kind, d.Name)
			}
		}
	}
	compare("end_to_end", f.EndToEnd, endToEnd, true)
	compare("per_layer", f.PerLayer, perLayer, false)
}

// result is the line a run ends with.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// checkReport parses the last line rep prints and holds it to the metric
// table it must cover exactly.
func checkReport(t *testing.T, rep *report, want []metricDef) result {
	t.Helper()
	var out bytes.Buffer
	rep.print(&out)
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res result
	dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last line: %v", rep.workload, err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", rep.workload, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, %d declared", rep.workload, len(res.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("%s: %s is declared and not emitted", rep.workload, d.name)
		} else if m.Unit != d.unit {
			t.Errorf("%s: %s emitted in %q, declared in %q", rep.workload, d.name, m.Unit, d.unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s is %v", rep.workload, d.name, m.Value)
		}
	}
	return res
}

// TestSmokeWorkloads runs every workload at -smoke sizes, untraced and
// traced: the output checks built into a run must pass, every declared
// metric must come out, and each engine's own layer counters must count.
func TestSmokeWorkloads(t *testing.T) {
	out := t.TempDir()
	for _, s := range specs {
		s := s.sized(nominalSeconds, true)
		rep, err := runPlain(s, 7)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		res := checkReport(t, rep, endToEnd)
		for _, d := range endToEnd {
			// A 2-second window falls between two rounds of periodic control.
			if d.name != "ctrl_msgs" && res.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: %s is %v, end-to-end metrics are never 0", s.name, d.name, res.Metrics[d.name].Value)
			}
		}
		if v := res.Metrics["delivered_share"].Value; v != 1 {
			t.Errorf("%s: delivered_share %v", s.name, v)
		}

		rep, err = runTraced(s, 7, out)
		if err != nil {
			t.Fatalf("%s traced: %v", s.name, err)
		}
		res = checkReport(t, rep, perLayer)
		for _, proto := range s.engines {
			forwards := engineLayer[proto] + ".data_forwards"
			if proto.String() == "mospf" {
				continue // MOSPF publishes no forward events
			}
			if res.Metrics[forwards].Value <= 0 {
				t.Errorf("%s: %s is %v", s.name, forwards, res.Metrics[forwards].Value)
			}
		}
		checkTraceFile(t, filepath.Join(out, s.name+".trace.json"))
	}
}

// checkTraceFile holds a written trace to the shape README.md describes:
// spans nest inside their parents without overlapping their siblings, so
// every self time is non-negative and all of them sum to the root span; the
// profile's shares sum to 1.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(tf.Spans) == 0 || tf.Spans[0].Parent != -1 || tf.Spans[0].Name != "run" {
		t.Fatalf("%s: no root span", path)
	}
	names := map[string]bool{}
	lastEnd := map[int]float64{}
	for i, s := range tf.Spans {
		names[s.Name] = true
		if s.ID != i || s.End < s.Start {
			t.Errorf("%s: span %d %s: id %d, %v..%v", path, i, s.Name, s.ID, s.Start, s.End)
		}
		if i == 0 {
			continue
		}
		if s.Parent < 0 || s.Parent >= i {
			t.Fatalf("%s: span %d %s has parent %d", path, i, s.Name, s.Parent)
		}
		p := tf.Spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("%s: span %s lies outside its parent %s", path, s.Name, p.Name)
		}
		if s.Start < lastEnd[s.Parent] {
			t.Errorf("%s: span %s overlaps an earlier child of %s", path, s.Name, p.Name)
		}
		lastEnd[s.Parent] = s.End
	}
	for _, want := range []string{"rebuild", "setup", "topology.gen", "scenario.build", "unicast.oracle_build", "scenario.deploy", "scenario.warmup", "window", "probes"} {
		if !names[want] {
			t.Errorf("%s: no %s span", path, want)
		}
	}
	var sum float64
	for i, self := range tf.SelfSeconds {
		if self < -1e-9 {
			t.Errorf("%s: span %s has self time %v", path, tf.Spans[i].Name, self)
		}
		sum += self
	}
	if root := tf.Spans[0].End - tf.Spans[0].Start; math.Abs(sum-root) > 1e-6 {
		t.Errorf("%s: self times sum to %v, the root span lasts %v", path, sum, root)
	}
	if tf.ProfileSamples > 0 {
		var shares float64
		for _, s := range tf.CPUShares {
			shares += s
		}
		if math.Abs(shares-1) > 1e-9 {
			t.Errorf("%s: cpu shares sum to %v", path, shares)
		}
	}
}

var spin uint64

// TestProfileBuckets decodes a real CPU profile of code outside the program:
// every sample must land in the runtime bucket.
func TestProfileBuckets(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e6; i++ {
			spin = spin*6364136223846793005 + 1442695040888963407
		}
	}
	pprof.StopCPUProfile()
	buckets, err := profileBuckets(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 1 || buckets[runtimeBucket] < 5 {
		t.Errorf("buckets %v, want only %q with the samples of 300 ms", buckets, runtimeBucket)
	}
}

func TestHostPlacement(t *testing.T) {
	for _, s := range specs {
		in, err := generate(s, 3)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if err := checkResidues(in.hostRouters); err != nil {
			t.Errorf("%s: %v", s.name, err)
		}
		for gi, gp := range in.groups {
			cast := map[int]bool{}
			for _, list := range [][]int{gp.steady, gp.pool, gp.senders} {
				for _, h := range list {
					if cast[h] {
						t.Errorf("%s group %d: host %d has two roles", s.name, gi, h)
					}
					cast[h] = true
				}
			}
		}
	}
	if err := checkResidues([]int{3, 259}); err == nil {
		t.Error("routers 3 and 259 share a LAN address and were accepted")
	}
}

func TestIQRShareMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10 squared], n=4) gives 7.75 and 68.25; the
	// median is 30.5.
	xs := []float64{1, 4, 9, 16, 25, 36, 49, 64, 81, 100}
	if got, want := iqrShare(xs), (68.25-7.75)/30.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}
