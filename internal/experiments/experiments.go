// Package experiments holds the paper's experiments: the §1.2 sparse-group
// overhead comparison and its scaling sweeps, the Figure 1 three-domain
// scenarios, group churn, congestion under finite link bandwidth and the
// fault-recovery matrix. Each driver is a renderer plus a fold: it writes its
// workload as .pim text (internal/script), runs it through the one run
// harness, script.RunWith (runCell), and folds its numbers from the
// script.Result — the reading each `run` leaves and, where a metric needs it,
// the captured event stream. cmd/pimsim, cmd/pimbench, the examples and
// bench_test.go all call into this package, so every reported number comes
// from one code path.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"pim/internal/netsim"
	"pim/internal/parallel"
	"pim/internal/script"
	"pim/internal/telemetry"
	"pim/internal/topology"
)

// Protocol selects the multicast routing protocol under test.
type Protocol string

// Supported protocols.
const (
	PIMSM       Protocol = "pim-sm"
	PIMDM       Protocol = "pim-dm"
	DVMRP       Protocol = "dvmrp"
	CBT         Protocol = "cbt"
	MOSPF       Protocol = "mospf"
	PIMSMShared Protocol = "pim-sm-shared" // sparse mode pinned to the RP tree
)

// AllProtocols lists every comparable protocol.
func AllProtocols() []Protocol {
	return []Protocol{PIMSM, PIMSMShared, CBT, DVMRP, PIMDM, MOSPF}
}

// Result is one protocol's overhead ledger from one run.
type Result struct {
	Protocol Protocol
	// State is the total number of multicast routing entries across all
	// routers at the end of the run.
	State int
	// CtrlMessages is the total number of protocol control messages sent.
	CtrlMessages int64
	// DataPackets counts data packet link crossings (packet processing).
	DataPackets int64
	// LinksTouched is how many backbone links carried at least one data
	// packet — the sparseness measure.
	LinksTouched int
	// MaxLinkData is the largest per-link data packet count (traffic
	// concentration).
	MaxLinkData int64
	// Delivered counts packets received by member hosts; Expected is the
	// count a loss-free protocol would deliver.
	Delivered, Expected int
	// SPFRuns counts Dijkstra executions (MOSPF's processing cost).
	SPFRuns int64
	// Events is the total number of scheduler events processed — the
	// simulator-side measure of protocol activity the scaling benchmark
	// normalizes wall time against (events/sec).
	Events int64
	// PeakTimers is the high-water mark of concurrently armed timers, the
	// soft-state pressure the §2.3 periodic-refresh design puts on a router's
	// timer subsystem.
	PeakTimers int
	// StateBytes is the end-of-run MFIB memory footprint summed across all
	// routers, for the protocols whose state plane is the shared mfib store
	// (PIM-SM, PIM-DM, DVMRP); zero for CBT and MOSPF, whose per-group tree
	// and cache state live elsewhere. This is the byte-level side of the
	// State entry count (DESIGN.md §16).
	StateBytes int64
}

// String renders the result as one table row.
func (r Result) String() string {
	return fmt.Sprintf("%-13s state=%4d ctrl=%6d dataPkts=%7d links=%3d maxLink=%5d delivered=%d/%d",
		r.Protocol, r.State, r.CtrlMessages, r.DataPackets, r.LinksTouched, r.MaxLinkData, r.Delivered, r.Expected)
}

// SparseConfig parameterizes the sparse-group overhead comparison.
type SparseConfig struct {
	Nodes   int
	Degree  float64
	Groups  int
	Members int // receivers per group
	Senders int // senders per group (distinct from receivers)
	Seed    int64
	// Warmup lets trees form before measurement; Duration is the measured
	// phase; senders emit one packet per PacketInterval.
	Warmup         netsim.Time
	Duration       netsim.Time
	PacketInterval netsim.Time
	// PruneLifetime for the dense-mode protocols (short values expose the
	// periodic-rebroadcast cost).
	PruneLifetime netsim.Time
	// Workers bounds the worker pool used when several protocol runs (or
	// sweep points) execute for this config: 0 = GOMAXPROCS, 1 = sequential.
	// Each run is an isolated simulation self-seeded from Seed, so results
	// are identical for every value.
	Workers int
}

// DefaultSparse returns a laptop-scale default comparable to the paper's
// sparse wide-area setting.
func DefaultSparse() SparseConfig {
	return SparseConfig{
		Nodes: 50, Degree: 4, Groups: 5, Members: 3, Senders: 1,
		Seed: 42, Warmup: 30 * netsim.Second, Duration: 300 * netsim.Second,
		PacketInterval: 5 * netsim.Second, PruneLifetime: 60 * netsim.Second,
	}
}

// RunSparse builds one random internet, deploys the protocol, runs the
// join/send workload, and returns the overhead ledger.
func RunSparse(cfg SparseConfig, proto Protocol) Result {
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := topology.Random(topology.GenConfig{Nodes: cfg.Nodes, Degree: cfg.Degree}, rng)
	return runSparse(g, cfg, proto, rng)
}

// RunSparseOn is RunSparse over a caller-supplied topology (e.g. parsed
// from a cmd/topogen edge list) instead of a freshly generated random one.
func RunSparseOn(g *topology.Graph, cfg SparseConfig, proto Protocol) Result {
	rng := rand.New(rand.NewSource(cfg.Seed))
	cfg.Nodes = g.N()
	return runSparse(g, cfg, proto, rng)
}

// sparseScript writes one comparison cell as .pim text: g's edges; per group,
// Members receivers and Senders senders drawn from rng, on their routers'
// hosts (pimText.host); every receiver
// joined at once; a Warmup run; then every sender at one packet per
// PacketInterval for the Duration run. It returns the text and the
// Delivered keys of the receivers.
func sparseScript(g *topology.Graph, cfg SparseConfig, proto Protocol, rng *rand.Rand) (string, []string) {
	var t pimText
	t.line("%s\nunicast oracle", topoLine(g))
	var members, senders [][]int
	for gi := range cfg.Groups {
		picked := topology.PickDistinct(cfg.Nodes, cfg.Members+cfg.Senders, rng)
		members = append(members, picked[:cfg.Members])
		senders = append(senders, picked[cfg.Members:])
		// RP / core placement: the first member's router (the paper's §4
		// guidance: "most efficient and convenient for the RP to be the
		// directly-connected PIM-speaking router of one of the members").
		t.line("group G%d rp r%d", gi, picked[0])
		for _, r := range picked {
			t.host(r)
		}
	}
	t.protocol(proto, cfg.PruneLifetime)
	var recv []string
	for gi, ms := range members {
		for _, m := range ms {
			t.line("at 0 join h%d G%d", m, gi)
			recv = append(recv, fmt.Sprintf("h%d/G%d", m, gi))
		}
	}
	t.line("run %s", script.FormatDuration(cfg.Warmup))
	for gi, ss := range senders {
		for _, s := range ss {
			t.line("at 0 send h%d G%d count=%d every=%s size=128", s, gi, sendsPer(cfg), script.FormatDuration(cfg.PacketInterval))
		}
	}
	t.line("run %s", script.FormatDuration(cfg.Duration))
	return t.String(), recv
}

// sendsPer is how many packets one sender emits in the measured run: one at
// its start and one per PacketInterval up to and including its end.
func sendsPer(cfg SparseConfig) int {
	if cfg.PacketInterval <= 0 {
		return 0
	}
	return int(cfg.Duration/cfg.PacketInterval) + 1
}

// runSparse runs one comparison cell and folds the ledger from the readings
// that close its warm-up and its measured run.
func runSparse(g *topology.Graph, cfg SparseConfig, proto Protocol, rng *rand.Rand) Result {
	text, recv := sparseScript(g, cfg, proto, rng)
	res := runCell(text, script.RunConfig{})
	warm, end := res.Runs[0], res.Runs[1]
	out := Result{
		Protocol:     proto,
		State:        end.State,
		CtrlMessages: end.Ctrl - warm.Ctrl,
		DataPackets:  end.Totals.DataPackets - warm.Totals.DataPackets,
		Events:       end.Events,
		PeakTimers:   res.PeakLiveTimers,
		SPFRuns:      end.SPFRuns,
		StateBytes:   end.StateBytes,
		// Expected = packets sent per group × receivers per group, summed.
		Expected: cfg.Groups * cfg.Senders * sendsPer(cfg) * cfg.Members,
	}
	// Links touched and concentration: backbone links only (host LANs
	// always carry data).
	for _, n := range edgeWindow(warm, end) {
		if n > 0 {
			out.LinksTouched++
		}
		out.MaxLinkData = max(out.MaxLinkData, n)
	}
	for _, k := range recv {
		out.Delivered += res.Delivered[k]
	}
	return out
}

// pimText accumulates a rendered .pim script, one statement a line.
type pimText struct {
	strings.Builder
	hosted map[int]bool
}

func (t *pimText) line(format string, a ...any) {
	fmt.Fprintf(&t.Builder, format+"\n", a...)
}

// host returns the name of router r's host, h<r>, writing its host line on
// first use: one host per router, added in first-use order.
func (t *pimText) host(r int) string {
	if !t.hosted[r] {
		if t.hosted == nil {
			t.hosted = map[int]bool{}
		}
		t.hosted[r] = true
		t.line("host h%d r%d", r, r)
	}
	return fmt.Sprintf("h%d", r)
}

// protocol writes the protocol statement, with the flood-and-prune hold when
// one is set.
func (t *pimText) protocol(proto Protocol, prune netsim.Time) {
	if prune > 0 {
		t.line("protocol %s prune=%s", proto, script.FormatDuration(prune))
	} else {
		t.line("protocol %s", proto)
	}
}

// topoLine writes g as a `topo edges` statement: script edge i is g's edge i,
// with its delay.
func topoLine(g *topology.Graph) string {
	var b strings.Builder
	b.WriteString("topo edges")
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, " %d-%d:%d", e.A, e.B, e.Delay)
	}
	return b.String()
}

// runCell parses rendered .pim text and runs it through the one run harness,
// script.RunWith. The renderers write only what the parser reads and the
// runner accepts, so a refusal is a programming error.
func runCell(text string, rc script.RunConfig) *script.Result {
	sc, err := script.Parse(text)
	if err == nil {
		var res *script.Result
		if res, err = sc.RunWith(rc); err == nil {
			return res
		}
	}
	panic(fmt.Sprintf("experiments: rendered script refused: %v\n%s", err, text))
}

// edgeWindow returns each topo edge's data crossings between two readings.
func edgeWindow(from, to script.Reading) []int64 {
	out := make([]int64, len(to.EdgeData))
	for i, n := range to.EdgeData {
		out[i] = n - from.EdgeData[i]
	}
	return out
}

// meanDelay folds a captured stream's member deliveries after since into
// their count and mean one-way delay (the Deliver event's Value is the
// packet's origination time).
func meanDelay(events []telemetry.Event, since netsim.Time) (n int, mean netsim.Time) {
	var sum netsim.Time
	for _, ev := range events {
		if ev.Kind == telemetry.Deliver && ev.At > since && ev.Value >= 0 {
			sum += ev.At - netsim.Time(ev.Value)
			n++
		}
	}
	if n > 0 {
		mean = sum / netsim.Time(n)
	}
	return n, mean
}

// CompareSparse runs every protocol over the same topology/workload seed.
// Runs are independent simulations (RunSparse re-seeds from cfg.Seed), so
// they fan across cfg.Workers workers; the slice is ordered by protos
// regardless of completion order.
func CompareSparse(cfg SparseConfig, protos []Protocol) []Result {
	out := make([]Result, len(protos))
	parallel.For(len(protos), cfg.Workers, func(i int) {
		out[i] = RunSparse(cfg, protos[i])
	})
	return out
}
