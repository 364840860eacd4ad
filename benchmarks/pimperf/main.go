// Command pimperf is the repository's benchmark: five protocol workloads
// measured end to end and, on a traced run, layer by layer. README.md in the
// parent directory describes the workloads, the metrics and their bounds.
//
//	bash benchmarks/run.sh -workload <name|all> [-seed 42] [-seconds 10] [-trace 1] [-smoke]
//	bash benchmarks/run.sh -selfcheck 5
//
// It is one process running one simulation at a time through the layers'
// public functions, with the program's five process-wide toggles at their
// defaults (fast path, timing wheel, frame pool, flat MFIB store, one shard).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// metricDef is one metric as BENCHMARK.json declares it; bound is zero for
// layer metrics, which have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the ten metrics every workload reports on an untraced run.
// README.md says how each bound was chosen.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"window_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"delivered_share", "share", "higher", 0.001},
	{"ctrl_msgs", "count", "lower", 0.25},
	{"data_crossings", "count", "lower", 0.15},
	{"state_entries", "count", "lower", 0.25},
	{"window_events", "count", "lower", 0.15},
	{"window_allocs", "count", "lower", 0.2},
	{"sim_delay_stretch", "ratio", "lower", 0.15},
}

// cpuLayers are the modules a CPU-profile sample can be charged to by name;
// every other pim/internal package lands in other.cpu_share.
var cpuLayers = []string{"netsim", "packet", "pimmsg", "rpf", "unicast", "mfib", "core", "pimdm", "dvmrp", "cbt", "mospf", "igmp", "telemetry", runtimeBucket}

// perLayer are the metrics of a traced run, in README.md's table order.
var perLayer = []metricDef{
	{name: "topology.gen_s", unit: "s", better: "lower"},
	{name: "scenario.build_s", unit: "s", better: "lower"},
	{name: "scenario.deploy_s", unit: "s", better: "lower"},
	{name: "scenario.warmup_s", unit: "s", better: "lower"},
	{name: "unicast.oracle_build_s", unit: "s", better: "lower"},
	{name: "unicast.table_entries", unit: "count", better: "lower"},
	{name: "runtime.heap_after_setup_mb", unit: "MB", better: "lower"},
	{name: "netsim.ns_per_event", unit: "ns", better: "lower"},
	{name: "netsim.cpu_share", unit: "share", better: "lower"},
	{name: "netsim.peak_timers", unit: "count", better: "lower"},
	{name: "netsim.ctrl_bytes", unit: "B", better: "lower"},
	{name: "netsim.data_bytes", unit: "B", better: "lower"},
	{name: "netsim.sched_ns", unit: "ns", better: "lower"},
	{name: "netsim.drops", unit: "count", better: "lower"},
	{name: "netsim.useful_delivery_share", unit: "share", better: "higher"},
	{name: "packet.codec_ns", unit: "ns", better: "lower"},
	{name: "packet.data_rx", unit: "count", better: "lower"},
	{name: "packet.cpu_share", unit: "share", better: "lower"},
	{name: "pimmsg.joinprune_codec_ns", unit: "ns", better: "lower"},
	{name: "pimmsg.cpu_share", unit: "share", better: "lower"},
	{name: "pimmsg.query_rx", unit: "count", better: "lower"},
	{name: "pimmsg.joinprune_rx", unit: "count", better: "lower"},
	{name: "pimmsg.register_rx", unit: "count", better: "lower"},
	{name: "pimmsg.rpreach_rx", unit: "count", better: "lower"},
	{name: "pimmsg.assert_rx", unit: "count", better: "lower"},
	{name: "pimmsg.graft_rx", unit: "count", better: "lower"},
	{name: "pimmsg.memberad_rx", unit: "count", better: "lower"},
	{name: "pimmsg.other_rx", unit: "count", better: "lower"},
	{name: "igmp.msgs_rx", unit: "count", better: "lower"},
	{name: "dvmrp.msgs_rx", unit: "count", better: "lower"},
	{name: "cbt.msgs_rx", unit: "count", better: "lower"},
	{name: "mospf.lsa_rx", unit: "count", better: "lower"},
	{name: "unicast.lookup_ns", unit: "ns", better: "lower"},
	{name: "unicast.cpu_share", unit: "share", better: "lower"},
	{name: "rpf.lookup_ns", unit: "ns", better: "lower"},
	{name: "rpf.cpu_share", unit: "share", better: "lower"},
	{name: "mfib.get_ns", unit: "ns", better: "lower"},
	{name: "mfib.upsert_delete_ns", unit: "ns", better: "lower"},
	{name: "mfib.cpu_share", unit: "share", better: "lower"},
	{name: "mfib.entry_creates", unit: "count", better: "lower"},
	{name: "mfib.entry_expires", unit: "count", better: "lower"},
	{name: "mfib.state_bytes", unit: "B", better: "lower"},
	{name: "mfib.entries", unit: "count", better: "lower"},
	{name: "core.data_forwards", unit: "count", better: "lower"},
	{name: "core.joinprune_sends", unit: "count", better: "lower"},
	{name: "core.register_sends", unit: "count", better: "lower"},
	{name: "core.spt_switches", unit: "count", better: "lower"},
	{name: "core.timer_fires", unit: "count", better: "lower"},
	{name: "core.cpu_share", unit: "share", better: "lower"},
	{name: "pimdm.data_forwards", unit: "count", better: "lower"},
	{name: "pimdm.rpf_drops", unit: "count", better: "lower"},
	{name: "pimdm.rpf_drop_share", unit: "share", better: "lower"},
	{name: "pimdm.prune_sends", unit: "count", better: "lower"},
	{name: "pimdm.graft_sends", unit: "count", better: "lower"},
	{name: "pimdm.timer_fires", unit: "count", better: "lower"},
	{name: "pimdm.cpu_share", unit: "share", better: "lower"},
	{name: "dvmrp.data_forwards", unit: "count", better: "lower"},
	{name: "dvmrp.rpf_drops", unit: "count", better: "lower"},
	{name: "dvmrp.prune_sends", unit: "count", better: "lower"},
	{name: "dvmrp.cpu_share", unit: "share", better: "lower"},
	{name: "dvmrp.window_s", unit: "s", better: "lower"},
	{name: "cbt.data_forwards", unit: "count", better: "lower"},
	{name: "cbt.cpu_share", unit: "share", better: "lower"},
	{name: "cbt.window_s", unit: "s", better: "lower"},
	{name: "cbt.allocs_per_event", unit: "1/event", better: "lower"},
	{name: "mospf.lsa_floods", unit: "count", better: "lower"},
	{name: "mospf.spf_runs", unit: "count", better: "lower"},
	{name: "mospf.cpu_share", unit: "share", better: "lower"},
	{name: "mospf.window_s", unit: "s", better: "lower"},
	{name: "igmp.member_joins", unit: "count", better: "lower"},
	{name: "igmp.member_leaves", unit: "count", better: "lower"},
	{name: "igmp.cpu_share", unit: "share", better: "lower"},
	{name: "runtime.window_alloc_mb", unit: "MB", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "runtime.heap_live_mb", unit: "MB", better: "lower"},
	{name: "runtime.cpu_share", unit: "share", better: "lower"},
	{name: "telemetry.events", unit: "count", better: "lower"},
	{name: "telemetry.cpu_share", unit: "share", better: "lower"},
	{name: "other.cpu_share", unit: "share", better: "lower"},
	{name: "trace.overhead_share", unit: "share", better: "lower"},
}

// value is one reported metric; its unit is the metricDef's. n is how many
// samples stand behind it and spread their (max-min)/median inside this run.
type value struct {
	v      float64
	n      int
	spread float64
}

// report is the outcome of one run of one workload.
type report struct {
	workload          string
	attempted, failed int64
	metrics           map[string]value
	order             []metricDef
	// note is a line for the reader that is not a declared metric.
	note string
}

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 42, "seed the inputs are generated from")
	seconds := flag.Int("seconds", nominalSeconds, "host seconds the measured windows of one run are sized for")
	trace := flag.Int("trace", 0, "1 runs one traced rebuild and reports the layer metrics")
	smoke := flag.Bool("smoke", false, "32-router sizes, 2 simulated seconds, one rebuild")
	selfcheck := flag.Int("selfcheck", 0, "run two alternating sets of N runs per workload and compare their medians")
	out := flag.String("out", "benchmarks/out", "directory the trace files are written to")
	flag.Parse()

	// The simulation is single-threaded; the second thread is the collector's.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	if err := run(*workload, *seed, *seconds, *trace == 1, *smoke, *selfcheck, *out); err != nil {
		fmt.Fprintln(os.Stderr, "pimperf:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, trace, smoke bool, selfcheck int, out string) error {
	if seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	var names []string
	if workload == "all" {
		for _, s := range specs {
			names = append(names, s.name)
		}
	} else if _, ok := specByName(workload); ok {
		names = []string{workload}
	} else {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if selfcheck > 0 {
		return runSelfcheck(names, seed, seconds, selfcheck)
	}
	fmt.Printf("pimperf: seed=%d seconds=%d smoke=%v gomaxprocs=%d num_cpu=%d %s\n",
		seed, seconds, smoke, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	for _, name := range names {
		s, _ := specByName(name)
		s = s.sized(seconds, smoke)
		// With -workload all both runs are made, the untraced one first.
		for _, traced := range []bool{false, true} {
			if traced != trace && workload != "all" {
				continue
			}
			var rep *report
			var err error
			if traced {
				rep, err = runTraced(s, seed, out)
			} else {
				rep, err = runPlain(s, seed)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			rep.print(os.Stdout)
		}
	}
	return nil
}

// runPlain is an untraced run: the rebuilds, the agreement check between
// them, and the ten end-to-end metrics.
func runPlain(s spec, seed int64) (*report, error) {
	n := rebuilds
	if s.smoke {
		n = 1
	}
	tr := newTracer()
	root := tr.begin("run")
	var rs []*rebuildResult
	for i := 0; i < n; i++ {
		tr.rebuild = i
		r, err := rebuild(s, seed, tr, nil)
		if err != nil {
			return nil, err
		}
		rs = append(rs, r)
	}
	tr.end(root)
	if err := agree(rs); err != nil {
		return nil, err
	}
	first := rs[0]
	rep := &report{workload: s.name, attempted: first.Owed, failed: first.Owed - first.Delivered, order: endToEnd, metrics: map[string]value{}}
	host := func(name string, pick func(*rebuildResult) float64) {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, pick(r))
		}
		slices.Sort(xs)
		med := median(xs)
		rep.metrics[name] = value{v: med, n: len(xs), spread: (xs[len(xs)-1] - xs[0]) / med}
	}
	exact := func(name string, v float64, n int) {
		rep.metrics[name] = value{v: v, n: n}
	}
	host("setup_s", func(r *rebuildResult) float64 { return r.setup.Seconds() })
	host("window_s", func(r *rebuildResult) float64 { return r.window.Seconds() })
	host("window_allocs", func(r *rebuildResult) float64 { return float64(r.allocs) })
	exact("delivered_share", float64(first.Delivered)/float64(first.Owed), len(rs))
	exact("ctrl_msgs", float64(first.Ctrl), len(rs))
	exact("data_crossings", float64(first.Data), len(rs))
	exact("state_entries", float64(first.State), len(rs))
	exact("window_events", float64(first.Events), len(rs))
	exact("sim_delay_stretch", float64(first.DelayUs)/float64(first.PathUs), int(first.Delivered))
	rep.note = fmt.Sprintf("mean sender-to-member delay %.3f simulated ms over %d deliveries",
		float64(first.DelayUs)/1000/float64(first.Delivered), first.Delivered)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	exact("peak_rss_mb", rss, 1)
	return rep, nil
}

// agree is the output check built into every run: the rebuilds ran the same
// inputs, so their simulated figures must be identical and their allocation
// counts within 0.01 %. (runEngine has already checked that no steady member
// received more than it was owed.)
func agree(rs []*rebuildResult) error {
	first := rs[0]
	if first.Owed < 1 {
		return errors.New("check failed: the window owed the steady members no packets")
	}
	for i, r := range rs[1:] {
		if r.counts != first.counts {
			a, _ := json.Marshal(first.counts)
			b, _ := json.Marshal(r.counts)
			return fmt.Errorf("check failed: rebuild %d disagrees with rebuild 0\n  rebuild 0: %s\n  rebuild %d: %s", i+1, a, i+1, b)
		}
		if d := float64(r.allocs) - float64(first.allocs); d > 1e-4*float64(first.allocs) || -d > 1e-4*float64(first.allocs) {
			return fmt.Errorf("check failed: window_allocs %d in rebuild 0, %d in rebuild %d: more than 0.01 %% apart", first.allocs, r.allocs, i+1)
		}
	}
	return nil
}

// traceFile is what a traced run writes beside its metrics.
type traceFile struct {
	Workload       string             `json:"workload"`
	Seed           int64              `json:"seed"`
	GoMaxProcs     int                `json:"gomaxprocs"`
	Spans          []span             `json:"spans"`
	SelfSeconds    []float64          `json:"self_s"`
	ProfileSamples int64              `json:"profile_samples"`
	CPUShares      map[string]float64 `json:"cpu_shares"`
	Metrics        map[string]float64 `json:"metrics"`
}

// runTraced makes one untraced rebuild for reference and one traced rebuild
// of the same inputs, checks that tracing left the simulation unchanged,
// reports the layer metrics and writes the spans to out/<workload>.trace.json.
func runTraced(s spec, seed int64, out string) (*report, error) {
	tr := newTracer()
	root := tr.begin("run")
	plain, err := rebuild(s, seed, tr, nil)
	if err != nil {
		return nil, err
	}
	tr.rebuild = 1
	acc := newLayerAcc()
	traced, err := rebuild(s, seed, tr, acc)
	if err != nil {
		return nil, err
	}
	tr.end(root)
	if err := agree([]*rebuildResult{plain}); err != nil {
		return nil, err
	}
	if traced.counts != plain.counts {
		a, _ := json.Marshal(plain.counts)
		b, _ := json.Marshal(traced.counts)
		return nil, fmt.Errorf("check failed: tracing changed the simulation\n  untraced: %s\n  traced:   %s", a, b)
	}

	m := acc.count
	for name, ns := range acc.probeNs {
		m[name] = float64(ns) / float64(acc.probeOps[name])
	}
	var total int64
	for _, n := range acc.samples {
		total += n
	}
	shares := map[string]float64{}
	if total > 0 {
		for b, n := range acc.samples {
			shares[b] = float64(n) / float64(total)
			if slices.Contains(cpuLayers, b) {
				m[b+".cpu_share"] = shares[b]
			} else {
				m["other.cpu_share"] += shares[b]
			}
		}
	}
	m["netsim.ns_per_event"] = float64(plain.window.Nanoseconds()) / float64(plain.Events)
	m["trace.overhead_share"] = (traced.window.Seconds() - plain.window.Seconds()) / plain.window.Seconds()
	if plain.Data > 0 {
		m["netsim.useful_delivery_share"] = m["telemetry.delivers"] / float64(plain.Data)
	}
	if rx := m["packet.data_rx"]; rx > 0 {
		m["pimdm.rpf_drop_share"] = m["pimdm.rpf_drops"] / rx
	}
	if ev := m["cbt.window_events"]; ev > 0 {
		m["cbt.allocs_per_event"] = m["cbt.window_allocs"] / ev
	}

	rep := &report{workload: s.name, attempted: plain.Owed, failed: plain.Owed - plain.Delivered, order: perLayer, metrics: map[string]value{}}
	for _, d := range perLayer {
		rep.metrics[d.name] = value{v: m[d.name], n: 1}
	}

	tf := traceFile{
		Workload: s.name, Seed: seed, GoMaxProcs: runtime.GOMAXPROCS(0),
		Spans: tr.spans, SelfSeconds: selfTimes(tr.spans),
		ProfileSamples: total, CPUShares: shares, Metrics: m,
	}
	b, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(out, s.name+".trace.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("trace: %d spans, %d profile samples -> %s\n", len(tr.spans), total, path)
	return rep, nil
}

// print writes every metric by name for a reader and, as the last line, the
// one JSON object a driver parses.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s: attempted=%d failed=%d\n", r.workload, r.attempted, r.failed)
	type jsonValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]jsonValue{}
	for _, d := range r.order {
		v := r.metrics[d.name]
		fmt.Fprintf(w, "  %-30s %16s %-8s n=%d spread=%.2f%%\n", d.name, strconv.FormatFloat(v.v, 'f', -1, 64), d.unit, v.n, 100*v.spread)
		metrics[d.name] = jsonValue{v.v, d.unit}
	}
	if r.note != "" {
		fmt.Fprintln(w, " ", r.note)
	}
	line, _ := json.Marshal(map[string]any{
		"correct": true, "attempted": r.attempted, "failed": r.failed, "metrics": metrics,
	})
	fmt.Fprintln(w, string(line))
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc/self/status")
}
