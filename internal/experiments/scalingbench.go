package experiments

import (
	"time"

	"pim/internal/netsim"
)

// The scaling benchmark wraps the §1.2 overhead sweeps (internal sizes,
// group counts, sender sets) in wall-clock instrumentation so the simulator
// itself can be ledgered: `pimbench run scaling` records wall time,
// events/sec, and peak live timers in BENCH_scale.json.

// ScalingBenchConfig names the sweeps the benchmark runs. Every sweep varies
// one axis of Base; Sizes is the headline axis (1000-router internets put
// >10^6 concurrent soft-state timers in the scheduler under PIM-DM's
// flood-and-prune).
type ScalingBenchConfig struct {
	Base    SparseConfig
	Sizes   []int // internet sizes for the size sweep
	Groups  []int // group counts for the group sweep
	Senders []int // per-group sender counts for the sender sweep
	Protos  []Protocol
}

// DefaultScalingBench is the ledger workload: internets up to 1000 routers,
// every protocol. The measured phase is shortened from the overhead-study
// default so the 1000-router flood-and-prune cells stay in whole-run minutes.
func DefaultScalingBench() ScalingBenchConfig {
	base := DefaultSparse()
	base.Duration = 60 * netsim.Second
	return ScalingBenchConfig{
		Base:    base,
		Sizes:   []int{50, 200, 1000},
		Groups:  []int{1, 4, 16},
		Senders: []int{1, 4, 16},
		Protos:  AllProtocols(),
	}
}

// SmokeScalingBench is the CI-sized workload for make scale-smoke: small
// internets, three protocols, same code paths.
func SmokeScalingBench() ScalingBenchConfig {
	base := DefaultSparse()
	base.Nodes = 30
	base.Duration = 60 * netsim.Second
	return ScalingBenchConfig{
		Base:    base,
		Sizes:   []int{20, 40},
		Groups:  []int{1, 3},
		Senders: []int{1, 3},
		Protos:  []Protocol{PIMSM, CBT, DVMRP},
	}
}

// TenKScalingBench is the 10 000-router headline cell: a single size-sweep
// point on the sparse protocols (flood-and-prune at this scale floods ~10^5
// link crossings per packet and is benchmarked separately at 1000 routers).
// The measured phase is short — the point is that a 10k-router internet
// builds and sustains throughput.
func TenKScalingBench() ScalingBenchConfig {
	base := DefaultSparse()
	base.Groups = 4
	base.Members = 8
	base.Warmup = 20 * netsim.Second
	base.Duration = 30 * netsim.Second
	return ScalingBenchConfig{
		Base:   base,
		Sizes:  []int{10000},
		Protos: []Protocol{PIMSM, CBT},
	}
}

// ScalingSweep is one timed sweep: the simulated grid plus the host-side
// cost of producing it.
type ScalingSweep struct {
	Name  string `json:"name"`
	Cells int    `json:"cells"`
	// WallMs is host wall-clock time for the whole sweep; Events counts
	// scheduler events processed across all cells, and EventsPerSec is their
	// ratio — the simulator's throughput.
	WallMs       float64 `json:"wall_ms"`
	Events       int64   `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	// PeakTimers is the largest concurrent live-timer population any cell
	// reached — the queue size the scheduler had to sustain.
	PeakTimers int `json:"peak_timers"`
	// Grid is the simulated outcome, identical across worker counts; it is
	// not serialized into the ledger.
	Grid []ScalingPoint `json:"-"`
}

// ScalingBenchResult aggregates the configured sweeps.
type ScalingBenchResult struct {
	Sweeps     []ScalingSweep `json:"sweeps"`
	WallMs     float64        `json:"wall_ms"`
	Events     int64          `json:"events"`
	PeakTimers int            `json:"peak_timers"`
}

// RunScalingBench runs the size, group, and sender sweeps under wall-clock
// timing.
func RunScalingBench(cfg ScalingBenchConfig) ScalingBenchResult {
	type sweepDef struct {
		name string
		run  func() []ScalingPoint
	}
	defs := []sweepDef{
		{"size", func() []ScalingPoint { return RunSizeScaling(cfg.Base, cfg.Sizes, cfg.Protos) }},
		{"groups", func() []ScalingPoint { return RunGroupScaling(cfg.Base, cfg.Groups, cfg.Protos) }},
		{"senders", func() []ScalingPoint { return RunSenderScaling(cfg.Base, cfg.Senders, cfg.Protos) }},
	}
	axes := [][]int{cfg.Sizes, cfg.Groups, cfg.Senders}
	var res ScalingBenchResult
	for di, d := range defs {
		if len(axes[di]) == 0 {
			continue // axis not configured (e.g. the 10k workload is size-only)
		}
		t0 := time.Now()
		grid := d.run()
		wall := time.Since(t0)
		sw := ScalingSweep{Name: d.name, Grid: grid}
		for _, pt := range grid {
			sw.Cells += len(pt.Results)
			for _, r := range pt.Results {
				sw.Events += r.Events
				if r.PeakTimers > sw.PeakTimers {
					sw.PeakTimers = r.PeakTimers
				}
			}
		}
		sw.WallMs = float64(wall.Microseconds()) / 1000
		if s := wall.Seconds(); s > 0 {
			sw.EventsPerSec = float64(sw.Events) / s
		}
		res.Sweeps = append(res.Sweeps, sw)
		res.WallMs += sw.WallMs
		res.Events += sw.Events
		if sw.PeakTimers > res.PeakTimers {
			res.PeakTimers = sw.PeakTimers
		}
	}
	return res
}
