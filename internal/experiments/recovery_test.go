package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pim/internal/addr"
	"pim/internal/igmp"
	"pim/internal/netsim"
	"pim/internal/scenario"
	"pim/internal/script"
	"pim/internal/topology"
)

// shortRecovery shrinks the matrix run for smoke testing: same topology and
// clocks, shorter tail after the restart.
func shortRecovery() RecoveryConfig {
	cfg := DefaultRecovery()
	cfg.End = 150 * netsim.Second
	return cfg
}

// update regenerates testdata goldens from the current run, mirroring
// `pimscript -update`: go test ./internal/experiments/ -run TestRecoveryMatrix -update
var update = flag.Bool("update", false, "rewrite testdata/recovery_matrix.golden from this run")

const recoveryGolden = "testdata/recovery_matrix.golden"

// renderRecoveryMatrix is the golden's line format: one cell per line, every
// simulated outcome, nothing host-dependent.
func renderRecoveryMatrix(res RecoveryResult) string {
	var b strings.Builder
	b.WriteString("# SmokeRecovery matrix; regenerate with: go test ./internal/experiments/ -run TestRecoveryMatrix -update\n")
	b.WriteString("# protocol fault recovered recovery_sec ctrl residual delivered trace_fnv64a\n")
	for _, c := range res.Cells {
		fmt.Fprintf(&b, "%s %s %v %.6f %d %d %d %s\n", c.Protocol, c.Fault, c.Recovered,
			c.RecoverySec, c.CtrlMessages, c.ResidualState, c.Delivered, c.TraceHash)
	}
	return b.String()
}

// TestRecoveryMatrix runs the full fault matrix at smoke size and holds every
// cell — recovered, recovery time, control messages, residual state,
// deliveries, and the delivery-trace fingerprint — to the recorded golden,
// so each cell is pinned absolutely rather than relative to a second run. It
// also checks the paper's claim directly: the soft-state protocols converge
// under 20% control-plane loss.
func TestRecoveryMatrix(t *testing.T) {
	cfg := SmokeRecovery()
	if testing.Short() {
		cfg.Workers = 1
	}
	res, err := RunRecovery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(RecoveryProtocols())*len(RecoveryFaults()) {
		t.Fatalf("matrix has %d cells", len(res.Cells))
	}
	for _, c := range res.Cells {
		// The loss cells answer the paper's §2 robustness claim directly:
		// periodic refresh (plus the acked graft/join handshakes) must
		// converge the late join through 20% control loss.
		if c.Fault != FaultFlap && c.Fault != FaultCrash && !c.Recovered {
			t.Errorf("%s/%s: late join never converged", c.Protocol, c.Fault)
		}
	}
	got := renderRecoveryMatrix(res)
	if *update {
		if err := os.MkdirAll(filepath.Dir(recoveryGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(recoveryGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(recoveryGolden)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Errorf("cell diverged from %s:\nrecorded %s\ngot      %s", recoveryGolden, wl[i], gl[i])
			}
		}
		t.Fatalf("recovery matrix drifted from its golden; rerun with -update if the change is intended")
	}
}

// TestRecoveryMatrixChecked reruns the matrix with the online invariant
// checker attached to every cell: lost control messages, link flaps, and
// crash/restart cycles must not produce a dead-epoch timer fire, an
// RPF-inconsistent iif, a negative-cache leak, or a dirty restart.
func TestRecoveryMatrixChecked(t *testing.T) {
	cfg := shortRecovery()
	cfg.Checked = true
	if testing.Short() {
		cfg.Workers = 1
	}
	res, err := RunRecovery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		for _, v := range c.Violations {
			t.Errorf("%s/%s: invariant violation: %s", c.Protocol, c.Fault, v)
		}
	}
}

// liveNeighbors sums the engines' live neighbor entries.
func liveNeighbors[R interface{ NeighborCount() int }](routers []R) func() int {
	return func() int {
		n := 0
		for _, r := range routers {
			n += r.NeighborCount()
		}
		return n
	}
}

// neighborProbe returns the deployment's live-neighbor count, or nil for the
// protocols that keep no neighbor liveness table (CBT tracks per-group
// children, MOSPF uses the domain).
func neighborProbe(dep scenario.Deployment) func() int {
	switch d := dep.(type) {
	case *scenario.PIMDeployment:
		return liveNeighbors(d.Routers)
	case *scenario.PIMDMDeployment:
		return liveNeighbors(d.Routers)
	case *scenario.DVMRPDeployment:
		return liveNeighbors(d.Routers)
	}
	return nil
}

// crashRestartSim is TestCrashRestartPerEngine's fixture: the recovery diamond
// (recoveryTemplate draws it) built by hand, because the test reads the engines'
// neighbor tables, which no script expectation reaches. The protocol runs on
// the recipe's fast soft-state grade with r3 as RP / CBT core.
func crashRestartSim(proto Protocol, group addr.IP) (sim *scenario.Sim, dep scenario.Deployment, src, recvA, recvB *igmp.Host) {
	g := topology.New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(1, 4, 2)
	g.AddEdge(4, 3, 2)
	sim = scenario.Build(g)
	src = sim.AddHost(0)
	recvA = sim.AddHost(recvARouter)
	recvB = sim.AddHost(recvBRouter)
	sim.FinishUnicast(scenario.UseOracle)
	dep = deploy(sim, scenario.Recipe{
		Protocol:   string(proto),
		Anchors:    map[addr.IP][]addr.IP{group: {sim.RouterAddr(3)}},
		FastTimers: true,
	})
	return sim, dep, src, recvA, recvB
}

// TestCrashRestartPerEngine is the acceptance test for the Restart
// lifecycle: for every engine, kill the mid-tree router at steady state,
// verify its state is really gone, and verify both that delivery resumes
// within a bounded number of refresh intervals after the restart and that
// no permanently stale neighbor entries survive.
func TestCrashRestartPerEngine(t *testing.T) {
	const (
		faultAt   = 60 * netsim.Second
		restartAt = 90 * netsim.Second
		// settleAt leaves three join/prune refresh intervals (20 s) after
		// the restart for the slowest soft-state rebuild.
		settleAt = 160 * netsim.Second
	)
	for _, proto := range RecoveryProtocols() {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			group := addr.GroupForIndex(0)
			sim, dep, src, recvA, recvB := crashRestartSim(proto, group)
			state, neighbors := dep.StateAt, neighborProbe(dep)

			sched := sim.Net.Sched
			sched.At(2*netsim.Second, func() { recvA.Join(group) })
			sched.At(2*netsim.Second, func() { recvB.Join(group) })
			for at := 5 * netsim.Second; at < settleAt; at += 2 * netsim.Second {
				at := at
				sched.At(at, func() { scenario.SendData(src, group, 64) })
			}

			sim.Run(faultAt)
			if recvA.Received[group] == 0 || recvB.Received[group] == 0 {
				t.Fatalf("no steady-state delivery before the fault: A=%d B=%d",
					recvA.Received[group], recvB.Received[group])
			}
			dep.Crash(2)
			if got := state(2); got != 0 {
				t.Fatalf("crashed router still holds %d state entries", got)
			}

			sim.Run(restartAt - faultAt)
			dep.Restart(2)
			if got := state(2); got != 0 {
				t.Fatalf("restarted router came back with %d preserved entries", got)
			}
			sim.Run(5 * netsim.Second)
			baseA, baseB := recvA.Received[group], recvB.Received[group]
			sim.Run(settleAt - restartAt - 5*netsim.Second)

			if recvA.Received[group] <= baseA || recvB.Received[group] <= baseB {
				t.Errorf("delivery did not resume within 3 refresh intervals of the restart: A %d->%d, B %d->%d",
					baseA, recvA.Received[group], baseB, recvB.Received[group])
			}
			if neighbors != nil {
				// 5 backbone edges, one live entry per endpoint: a higher
				// count means a stale entry survived the crash, a lower one
				// means the restarted router was not re-learned.
				if got := neighbors(); got != 10 {
					t.Errorf("live neighbor entries = %d after settle, want 10", got)
				}
			}
		})
	}
}

// TestRecoveryDeterministicAcrossWorkers is the determinism regression: the
// matrix must be bit-identical whatever the worker count, because every cell
// is an isolated simulation seeded from (Seed, cell index) only.
func TestRecoveryDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix comparison; covered by TestRecoveryMatrix in short mode")
	}
	cfg := shortRecovery()
	cfg.Workers = 1
	seq, err := RunRecovery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := RunRecovery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("results differ across Workers:\nworkers=1: %+v\nworkers=4: %+v", seq, par)
	}
}

// TestRecoveryScriptsParse holds the pim-sm crash smoke cell verbatim — it is
// the example EXPERIMENTS.md shows — and to the parser. The renderer's whole
// output space, all 25 cells at both ledgered sizes, is parsed by
// faultsearch's TestEveryRenderedScheduleParses.
func TestRecoveryScriptsParse(t *testing.T) {
	const want = `topo edges 0-1:1 1-2:1 2-3:1 1-4:2 4-3:2
unicast oracle
group G0 rp r3
faultseed 7
protocol pim-sm timers=fast
host src r0
host recvA r3
host recvB r4
at 0s join recvA G0
at 0s join recvB G0
at 3s send src G0 count=58 every=2s size=64
at 28s crash r2
at 43s restart r2
run 27s
run 91s
`
	got, err := RecoveryScript(SmokeRecovery(), PIMSM, FaultCrash, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("pim-sm/crash smoke cell drifted (update EXPERIMENTS.md with it):\n%s", got)
	}
	if _, err := script.Parse(got); err != nil {
		t.Errorf("pim-sm/crash smoke cell does not parse: %v", err)
	}
}

// TestRecoveryConfigChecked: a config no cell script can express is refused
// with the field named (a zero PacketInterval has no packet count to render,
// and a sender stepping by it would never reach End; fault clauses fall on
// whole seconds).
func TestRecoveryConfigChecked(t *testing.T) {
	for _, tc := range []struct {
		field string
		edit  func(*RecoveryConfig)
		kind  string
	}{
		{"PacketInterval", func(c *RecoveryConfig) { c.PacketInterval = 0 }, FaultCrash},
		{"PacketInterval", func(c *RecoveryConfig) { c.PacketInterval = -netsim.Second }, FaultCrash},
		{"FaultAt", func(c *RecoveryConfig) { c.FaultAt = 2 * netsim.Second }, FaultCrash},
		{"FaultAt", func(c *RecoveryConfig) { c.FaultAt += 500 * netsim.Millisecond }, FaultCrash},
		{"RestartAt", func(c *RecoveryConfig) { c.RestartAt += netsim.Millisecond }, FaultCrash},
		{"RestartAt", func(c *RecoveryConfig) { c.RestartAt = c.FaultAt }, FaultCrash},
		{"RestartAt", func(c *RecoveryConfig) { c.RestartAt = c.End }, FaultCrash},
		{"JoinAt", func(c *RecoveryConfig) { c.JoinAt = c.FaultAt }, FaultLoss5},
		{"JoinAt", func(c *RecoveryConfig) { c.JoinAt = c.End + netsim.Second }, FaultLoss5},
		{"unknown recovery fault", func(*RecoveryConfig) {}, "meltdown"},
	} {
		cfg := SmokeRecovery()
		tc.edit(&cfg)
		if _, err := RecoveryScript(cfg, PIMSM, tc.kind, 1); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: RecoveryScript error = %v, want one naming the field", tc.field, err)
		}
	}
	// Through the entry points: the matrix is refused before any cell runs
	// (a zero interval would otherwise never get there), and a telemetry cell
	// names the caller's mistake instead of panicking.
	if _, err := RunRecovery(RecoveryConfig{Seed: 1, FaultAt: 30 * netsim.Second, RestartAt: 45 * netsim.Second,
		JoinAt: 35 * netsim.Second, End: 120 * netsim.Second}); err == nil || !strings.Contains(err.Error(), "PacketInterval") {
		t.Errorf("RunRecovery with a zero PacketInterval: %v, want an error naming the field", err)
	}
	if _, err := RecoveryTelemetry(SmokeRecovery(), PIMSM, "meltdown", netsim.Second); err == nil {
		t.Error("RecoveryTelemetry accepted an unknown fault kind")
	}
	if _, err := RecoveryTelemetry(SmokeRecovery(), "ospf", FaultCrash, netsim.Second); err == nil || !strings.Contains(err.Error(), "ospf") {
		t.Errorf("RecoveryTelemetry with an unknown protocol: %v, want an error naming it", err)
	}
}
