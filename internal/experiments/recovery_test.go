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
	"pim/internal/netsim"
	"pim/internal/scenario"
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
	res := RunRecovery(cfg)
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
	res := RunRecovery(cfg)
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
			sim, src, recvA, recvB := recoverySim(proto, 1)
			group := addr.GroupForIndex(0)
			dep := deployRecovery(sim, proto, group, 3)
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
	seq := RunRecovery(cfg)
	cfg.Workers = 4
	par := RunRecovery(cfg)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("results differ across Workers:\nworkers=1: %+v\nworkers=4: %+v", seq, par)
	}
}
