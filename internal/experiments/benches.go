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
		Summary: "large-internet scaling sweeps",
		Ledger:  "BENCH_scale.json",
		Run:     runScalingBench,
	})
	bench.Register("tenk", bench.Spec{
		Summary: "10 000-router size cells",
		Ledger:  "BENCH_scale.json",
		Run:     runTenKBench,
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

// ScalingEntry is one appended record of the scaling ledger.
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

// scalingEntry runs cfg's sweeps, printing one line per sweep, and returns
// the ledger entry labelled with tag (nil on a smoke run).
func scalingEntry(ctx *bench.Context, cfg ScalingBenchConfig, tag string) *ScalingEntry {
	res := RunScalingBench(cfg)
	for _, sw := range res.Sweeps {
		ctx.Printf("scaling %-7s %2d cells  %9.1f ms  %9d events  %9.0f events/sec  peak timers %d",
			sw.Name, sw.Cells, sw.WallMs, sw.Events, sw.EventsPerSec, sw.PeakTimers)
	}
	if ctx.Smoke {
		ctx.Printf("smoke run: nothing recorded")
		return nil
	}
	return &ScalingEntry{LedgerHeader: ctx.Header(tag), Result: res}
}

func runScalingBench(ctx *bench.Context) error {
	cfg := DefaultScalingBench()
	if ctx.Smoke {
		cfg = SmokeScalingBench()
	}
	if e := scalingEntry(ctx, cfg, ""); e != nil {
		e.Churn = schedMicroBench(netsim.SchedulerChurn)
		e.Dense = schedMicroBench(netsim.SchedulerDense)
		ctx.Printf("sched micro %s  churn %8.1f ns/op (%d allocs/op)  dense %8.1f ns/op (%d allocs/op)",
			e.Label, e.Churn.NsPerOp, e.Churn.AllocsPerOp, e.Dense.NsPerOp, e.Dense.AllocsPerOp)
		ctx.Append(*e)
	}
	return nil
}

// runTenKBench ledgers the 10 000-router size cell under "-10k".
func runTenKBench(ctx *bench.Context) error {
	cfg := TenKScalingBench()
	if ctx.Smoke {
		// The large cell takes minutes; smoke runs the same code paths on
		// the CI-sized workload instead.
		cfg = SmokeScalingBench()
	}
	if e := scalingEntry(ctx, cfg, "-10k"); e != nil {
		ctx.Append(*e)
	}
	return nil
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
