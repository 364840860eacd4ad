// Benchmark registrations: every pimbench benchmark this package backs is
// wired into the bench registry here, at init time. cmd/pimbench only
// blank-imports the package — adding an experiment to the `pimbench run`
// surface means one bench.Register call in this file, nothing else
// (DESIGN.md §15). Each Run prints its measurements, enforces its
// differential gate (errors refuse the record), and queues ledger entries
// through the shared bench.Context.
package experiments

import (
	"fmt"
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	"pim/internal/bench"
	"pim/internal/netsim"
	"pim/internal/trees"
)

func init() {
	bench.Register("fig2", bench.Spec{
		Summary: "Figure 2(a)/2(b) tree-quality sweeps, sequential vs parallel workers",
		Ledger:  "BENCH_fig2.json",
		Run:     runFig2Bench,
	})
	bench.Register("recovery", bench.Spec{
		Summary: "fault-recovery matrix: every protocol through loss, flap, crash",
		Ledger:  "BENCH_recovery.json",
		Run:     runRecoveryBench,
	})
	bench.Register("scaling", bench.Spec{
		Summary: "large-internet scaling sweeps (plus a gated sharded pass with -shards N>1)",
		Ledger:  "BENCH_scale.json",
		Run:     runScalingBench,
	})
	bench.Register("tenk", bench.Spec{
		Summary: "10 000-router size cells, sequential and sharded",
		Ledger:  "BENCH_scale.json",
		Run:     sizeCellBench(TenKScalingBench, "-10k"),
	})
	bench.Register("dense4k", bench.Spec{
		Summary: "4 096-router PIM-DM data cell, sequential and sharded (the shape sharding wins on)",
		Ledger:  "BENCH_scale.json",
		Run:     sizeCellBench(Dense4KScalingBench, "-dense4k"),
	})
	bench.Register("telemetry", bench.Spec{
		Summary: "PIM-SM crash-recovery telemetry curves (writes JSON report, no ledger)",
		Run:     runTelemetryBench,
	})
}

// FigBench is the measurement of one figure's sweep.
type FigBench struct {
	Trials      int     `json:"trials"`
	Degrees     int     `json:"degrees"`
	Wall1Ms     float64 `json:"wall_ms_workers_1"`
	WallAllMs   float64 `json:"wall_ms_workers_all"`
	Speedup     float64 `json:"speedup"`
	Identical   bool    `json:"series_identical"`
	FirstSeries any     `json:"first_point"`
}

// Fig2Entry is one appended record of the Figure 2 ledger.
type Fig2Entry struct {
	bench.LedgerHeader
	Fig2a FigBench `json:"fig2a"`
	Fig2b FigBench `json:"fig2b"`
}

// fig2Sweep times one figure's sweep with one worker and with all workers
// and checks the two series are bit-identical.
func fig2Sweep[P any](trials, degrees int, run func(workers int) []P,
	first func([]P) any) FigBench {
	t0 := time.Now()
	seq := run(1)
	wall1 := time.Since(t0)
	t0 = time.Now()
	par := run(0)
	wallAll := time.Since(t0)
	return FigBench{
		Trials: trials, Degrees: degrees,
		Wall1Ms:     float64(wall1.Microseconds()) / 1000,
		WallAllMs:   float64(wallAll.Microseconds()) / 1000,
		Speedup:     float64(wall1) / float64(wallAll),
		Identical:   reflect.DeepEqual(seq, par),
		FirstSeries: first(seq),
	}
}

func runFig2Bench(ctx *bench.Context) error {
	entry := Fig2Entry{LedgerHeader: ctx.Header("")}

	cfgA := trees.DefaultFig2a()
	cfgB := trees.DefaultFig2b()
	if ctx.Smoke {
		cfgA.Trials, cfgB.Trials = 2, 2
	}
	entry.Fig2a = fig2Sweep(cfgA.Trials, len(cfgA.Degrees),
		func(workers int) []trees.Fig2aPoint {
			c := cfgA
			c.Workers = workers
			return trees.RunFig2a(c)
		},
		func(seq []trees.Fig2aPoint) any {
			return map[string]float64{"degree": seq[0].Degree, "mean_ratio": seq[0].MeanRatio}
		})
	ctx.Printf("fig2a: %d trials × %d degrees  workers=1 %.0f ms  workers=all %.0f ms  speedup %.2fx  identical=%v",
		cfgA.Trials, len(cfgA.Degrees), entry.Fig2a.Wall1Ms, entry.Fig2a.WallAllMs,
		entry.Fig2a.Speedup, entry.Fig2a.Identical)

	entry.Fig2b = fig2Sweep(cfgB.Trials, len(cfgB.Degrees),
		func(workers int) []trees.Fig2bPoint {
			c := cfgB
			c.Workers = workers
			return trees.RunFig2b(c)
		},
		func(seq []trees.Fig2bPoint) any {
			return map[string]float64{"degree": seq[0].Degree, "spt_max": seq[0].SPTMax, "cbt_max": seq[0].CBTMax}
		})
	ctx.Printf("fig2b: %d trials × %d degrees  workers=1 %.0f ms  workers=all %.0f ms  speedup %.2fx  identical=%v",
		cfgB.Trials, len(cfgB.Degrees), entry.Fig2b.Wall1Ms, entry.Fig2b.WallAllMs,
		entry.Fig2b.Speedup, entry.Fig2b.Identical)

	if !entry.Fig2a.Identical || !entry.Fig2b.Identical {
		return fmt.Errorf("parallel series diverged from sequential — not recording")
	}
	ctx.Append(entry)
	return nil
}

// RecoveryEntry is one appended record of the fault-recovery ledger.
type RecoveryEntry struct {
	bench.LedgerHeader
	Result RecoveryResult `json:"result"`
}

func runRecoveryBench(ctx *bench.Context) error {
	cfg := DefaultRecovery()
	if ctx.Smoke {
		cfg = SmokeRecovery()
	}
	cfg.Shards = ctx.Shards
	res, err := RunRecovery(cfg)
	if err != nil {
		return err
	}
	for _, c := range res.Cells {
		rec := "   never"
		if c.Recovered {
			rec = fmt.Sprintf("%7.2fs", c.RecoverySec)
		}
		ctx.Printf("recovery %-13s %-7s %s  ctrl=%4d  residual=%3d  delivered=%4d  trace=%s",
			c.Protocol, c.Fault, rec, c.CtrlMessages, c.ResidualState, c.Delivered, c.TraceHash)
	}
	ctx.Printf("recovery all recovered=%v", res.AllRecovered)
	ctx.Append(RecoveryEntry{LedgerHeader: ctx.Header(""), Result: res})
	return nil
}

// MicroBench is one scheduler microbenchmark column of the scaling ledger.
type MicroBench struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// ScalingEntry is one appended record of the scaling ledger: the sequential
// pass, plus one per gated sharded pass over bit-identical simulated grids.
type ScalingEntry struct {
	bench.LedgerHeader
	Result ScalingBenchResult `json:"result"`
	Churn  MicroBench         `json:"sched_churn"`
	Dense  MicroBench         `json:"sched_dense"`
}

// schedMicroBench replays one deterministic scheduler workload under
// testing.Benchmark and reports ns/op and allocs/op. The parked-timer
// population is rebuilt outside the timed region on each probe.
func schedMicroBench(workload func(*netsim.Scheduler, int)) MicroBench {
	r := testing.Benchmark(func(b *testing.B) {
		s := netsim.PrepSchedulerBench(true)
		b.ReportAllocs()
		b.ResetTimer()
		workload(s, b.N)
	})
	return MicroBench{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// scalingPass executes one scaling sweep pass on the given shard count,
// printing one line per sweep.
func scalingPass(ctx *bench.Context, cfg ScalingBenchConfig, shards int) ScalingBenchResult {
	cfg.Base.Shards = shards
	res := RunScalingBench(cfg)
	for _, sw := range res.Sweeps {
		ctx.Printf("scaling %-7s shards=%d  %2d cells  %9.1f ms  %9d events  %9.0f events/sec  peak timers %d",
			sw.Name, shards, sw.Cells, sw.WallMs, sw.Events, sw.EventsPerSec, sw.PeakTimers)
	}
	return res
}

// scalingEntries runs cfg sequentially and, with ctx.Shards > 1, once more
// sharded, refusing (error) unless the sharded grid matches the sequential
// one. It returns one entry per pass, labelled tag+"-seq" / tag+"-shardsN"
// (none on a smoke run).
func scalingEntries(ctx *bench.Context, cfg ScalingBenchConfig, tag string) ([]ScalingEntry, error) {
	seq := scalingPass(ctx, cfg, 1)
	h := ctx.Header(tag + "-seq")
	h.Shards = 1
	entries := []ScalingEntry{{LedgerHeader: h, Result: seq}}
	if ctx.Shards > 1 {
		res := scalingPass(ctx, cfg, ctx.Shards)
		if !SameGridsSharded(seq, res) {
			return nil, fmt.Errorf("shards=%d grid diverged from sequential — not recording", ctx.Shards)
		}
		ctx.Printf("sharded grid identical; wall %0.1f ms (shards=1) vs %0.1f ms (shards=%d), %.2fx",
			seq.WallMs, res.WallMs, ctx.Shards, seq.WallMs/res.WallMs)
		hs := ctx.Header(fmt.Sprintf("%s-shards%d", tag, ctx.Shards))
		entries = append(entries, ScalingEntry{LedgerHeader: hs, Result: res})
	}
	if ctx.Smoke {
		ctx.Printf("smoke run: grid gate passed, nothing recorded")
		return nil, nil
	}
	return entries, nil
}

func runScalingBench(ctx *bench.Context) error {
	cfg := DefaultScalingBench()
	if ctx.Smoke {
		cfg = SmokeScalingBench()
	}
	entries, err := scalingEntries(ctx, cfg, "")
	if err != nil {
		return err
	}
	for _, e := range entries {
		e.Churn = schedMicroBench(netsim.SchedulerChurn)
		e.Dense = schedMicroBench(netsim.SchedulerDense)
		ctx.Printf("sched micro %s  churn %8.1f ns/op (%d allocs/op)  dense %8.1f ns/op (%d allocs/op)",
			e.Label, e.Churn.NsPerOp, e.Churn.AllocsPerOp, e.Dense.NsPerOp, e.Dense.AllocsPerOp)
		ctx.Append(e)
	}
	return nil
}

// sizeCellBench ledgers one large size cell under tag, sequentially and — with
// -shards N — sharded through the grid-equivalence gate.
func sizeCellBench(full func() ScalingBenchConfig, tag string) func(*bench.Context) error {
	return func(ctx *bench.Context) error {
		cfg := full()
		if ctx.Smoke {
			// The large cells take up to minutes; smoke verifies the same
			// sequential-vs-sharded gate on the CI-sized workload instead.
			cfg = SmokeScalingBench()
		}
		entries, err := scalingEntries(ctx, cfg, tag)
		if err != nil {
			return err
		}
		for _, e := range entries {
			ctx.Append(e)
		}
		return nil
	}
}

// runTelemetryBench runs the PIM-SM crash/restart recovery cell with the
// time-series sampler attached and writes the per-router counter curves as
// JSON to ctx.Out (default telemetry.json); smoke runs the smoke-sized cell
// and discards the output. No ledger is touched either way.
func runTelemetryBench(ctx *bench.Context) error {
	cfg := DefaultRecovery()
	if ctx.Smoke {
		cfg = SmokeRecovery()
	}
	cfg.Shards = ctx.Shards
	smp, err := RecoveryTelemetry(cfg, PIMSM, FaultCrash, 5*netsim.Second)
	if err != nil {
		return err
	}
	if ctx.Smoke {
		if err := smp.WriteJSON(io.Discard); err != nil {
			return err
		}
		ctx.Printf("smoke run: telemetry curves rendered, nothing written")
		return nil
	}
	out := ctx.Out
	if out == "" {
		out = "telemetry.json"
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := smp.WriteJSON(f); err != nil {
		return err
	}
	ctx.Printf("wrote pim-sm/crash telemetry curves to %s", out)
	return nil
}
