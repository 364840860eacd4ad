package scenario

import (
	"testing"

	"pim/internal/addr"
	"pim/internal/faults"
	"pim/internal/netsim"
	"pim/internal/telemetry"
	"pim/internal/topology"
)

// lifecycleSubject is what the contract below drives: the crash/restart
// surface of faults.Lifecycle plus Start and the epoch-stamped timer, all of
// which every engine gets from the chassis it embeds.
type lifecycleSubject interface {
	Start()
	Stop()
	Restart()
	After(netsim.Time, func()) *netsim.Timer
}

// TestLifecycleContract drives all six faults.Lifecycle implementations — the
// five multicast engines and the IGMP querier — through one script. Each runs
// as the last-hop instance of a loaded three-router chain (sender behind r0,
// member behind r2), with a private telemetry bus so every recorded event is
// the subject's own:
//
//   - Restart bumps the epoch exactly once and the second life starts with
//     EpochStart.Value == 0;
//   - a timer armed before the restart never runs its body, and no TimerFire
//     is published under the dead epoch;
//   - Stop leaves zero forwarding / neighbor / membership state, detaches the
//     handlers (traffic, hellos and reports that keep arriving rebuild
//     nothing and publish nothing), and is idempotent;
//   - Start twice is one start.
func TestLifecycleContract(t *testing.T) {
	cases := []struct {
		name  string
		proto Protocol
		// pick returns the subject on router 2, attaches bus to it, and
		// returns a probe summing every piece of soft state it holds.
		pick func(d Deployment, bus *telemetry.Bus) (lifecycleSubject, func() int)
	}{
		{"pim-sm", SparseMode, func(d Deployment, bus *telemetry.Bus) (lifecycleSubject, func() int) {
			r := d.(*PIMDeployment).Routers[2]
			r.Telemetry = bus
			return r, func() int { return r.StateCount() + r.NeighborCount() }
		}},
		{"pim-dm", DenseMode, func(d Deployment, bus *telemetry.Bus) (lifecycleSubject, func() int) {
			r := d.(*PIMDMDeployment).Routers[2]
			r.Telemetry = bus
			return r, func() int { return r.StateCount() + r.NeighborCount() + len(r.Local.Groups(nil)) }
		}},
		{"dvmrp", DVMRPMode, func(d Deployment, bus *telemetry.Bus) (lifecycleSubject, func() int) {
			r := d.(*DVMRPDeployment).Routers[2]
			r.Telemetry = bus
			return r, func() int { return r.StateCount() + r.NeighborCount() + len(r.Local.Groups(nil)) }
		}},
		{"cbt", CBTMode, func(d Deployment, bus *telemetry.Bus) (lifecycleSubject, func() int) {
			r := d.(*CBTDeployment).Routers[2]
			r.Telemetry = bus
			return r, r.StateCount
		}},
		{"mospf", MOSPFMode, func(d Deployment, bus *telemetry.Bus) (lifecycleSubject, func() int) {
			r := d.(*MOSPFDeployment).Routers[2]
			r.Telemetry = bus
			return r, r.StateCount // forwarding cache + membership database
		}},
		{"igmp", DVMRPMode, func(d Deployment, bus *telemetry.Bus) (lifecycleSubject, func() int) {
			q := d.(*DVMRPDeployment).Queriers[2]
			q.Telemetry = bus
			return q, func() int { return len(q.Groups()) }
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := topology.New(3)
			g.AddEdge(0, 1, 1)
			g.AddEdge(1, 2, 1)
			sim := Build(g)
			src, rcv := sim.AddHost(0), sim.AddHost(2)
			sim.FinishUnicast(UseOracle)
			group := addr.MustParseIP("225.1.2.3")
			rendezvous := sim.RouterAddr(0)
			dep := sim.Deploy(tc.proto,
				WithRPMapping(map[addr.IP][]addr.IP{group: {rendezvous}}),
				WithMOSPFRefresh(10*netsim.Second),
				WithIGMPTimers(10*netsim.Second, 30*netsim.Second))
			if cd, ok := dep.(*CBTDeployment); ok {
				for _, r := range cd.Routers {
					r.Cfg.CoreMapping[group] = rendezvous
				}
			}
			sim.Run(2 * netsim.Second)
			rcv.Join(group)
			var pump func()
			pump = func() {
				SendData(src, group, 64)
				sim.Net.Sched.After(netsim.Second, pump)
			}
			pump()

			var events []telemetry.Event
			bus := telemetry.NewBus()
			bus.Subscribe(func(ev telemetry.Event) { events = append(events, ev) })
			count := func(kind telemetry.Kind) (n int, last telemetry.Event) {
				for _, ev := range events {
					if ev.Kind == kind {
						n, last = n+1, ev
					}
				}
				return n, last
			}
			subject, state := tc.pick(dep, bus)
			sim.Run(40 * netsim.Second)
			if state() == 0 {
				t.Fatal("vacuous: the first life built no soft state to discard")
			}

			// Restart with a timer pending.
			ran := false
			subject.After(30*netsim.Second, func() { ran = true })
			events = events[:0]
			subject.Restart()
			ends, end := count(telemetry.EpochEnd)
			starts, start := count(telemetry.EpochStart)
			if ends != 1 || starts != 1 {
				t.Fatalf("Restart published %d EpochEnd and %d EpochStart, want 1 and 1", ends, starts)
			}
			if start.Epoch != end.Epoch+1 {
				t.Errorf("Restart moved the epoch %d -> %d, want exactly one bump", end.Epoch, start.Epoch)
			}
			if start.Value != 0 {
				t.Errorf("second life started with EpochStart.Value = %d, want 0", start.Value)
			}
			// A crash takes the whole node down: bounce whatever shares it with
			// the subject, so a last-hop router re-learns its members from the
			// querier's re-query as it would after a real restart.
			for _, e := range dep.(interface{ engines(int) []faults.Lifecycle }).engines(2) {
				if any(e) != any(subject) {
					e.Restart()
				}
			}
			sim.Run(60 * netsim.Second)
			if ran {
				t.Error("a timer armed in the dead epoch ran its body")
			}
			fires := 0
			for _, ev := range events {
				if ev.Kind == telemetry.TimerFire {
					fires++
					if ev.Epoch != start.Epoch {
						t.Fatalf("TimerFire published under epoch %d while epoch %d is current", ev.Epoch, start.Epoch)
					}
				}
			}
			if fires == 0 {
				t.Error("the second life's own timers never fired")
			}
			if state() == 0 {
				t.Error("the second life rebuilt no soft state from refresh")
			}

			// Stop: nothing left, nothing listening, nothing published.
			events = events[:0]
			subject.Stop()
			subject.Stop()
			if ends, end = count(telemetry.EpochEnd); ends != 1 || end.Epoch != start.Epoch {
				t.Errorf("Stop twice published %d EpochEnd (epoch %d), want 1 (epoch %d)", ends, end.Epoch, start.Epoch)
			}
			if n := state(); n != 0 {
				t.Errorf("Stop left %d pieces of soft state", n)
			}
			sim.Run(30 * netsim.Second)
			if n := state(); n != 0 {
				t.Errorf("a stopped instance rebuilt %d pieces of state: its handlers are still registered", n)
			}
			if len(events) != 1 {
				t.Errorf("a stopped instance published %d events after its EpochEnd, e.g. %+v", len(events)-1, events[len(events)-1])
			}

			// Start twice is one start.
			events = events[:0]
			subject.Start()
			subject.Start()
			starts, third := count(telemetry.EpochStart)
			if starts != 1 || third.Epoch != start.Epoch+1 || third.Value != 0 {
				t.Errorf("Start twice published %d EpochStart (epoch %d, value %d), want 1 (epoch %d, value 0)",
					starts, third.Epoch, third.Value, start.Epoch+1)
			}
		})
	}
}
