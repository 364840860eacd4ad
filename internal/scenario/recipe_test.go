package scenario

import (
	"strings"
	"testing"

	"pim/internal/addr"
	"pim/internal/netsim"
	"pim/internal/telemetry"
	"pim/internal/topology"
)

// TestRecipeDeploysEveryName: every name of ProtocolNames deploys on a
// three-router chain with a memberless spur off its middle (so the
// flood-and-prune protocols have something to prune), delivers to the member
// behind r2, and — driven through the Deployment interface alone — loses the
// transit router's state at Crash, gets it back empty at Restart and delivers
// again from soft-state refresh.
func TestRecipeDeploysEveryName(t *testing.T) {
	for _, name := range ProtocolNames() {
		t.Run(name, func(t *testing.T) {
			g := topology.New(4)
			g.AddEdge(0, 1, 1)
			g.AddEdge(1, 2, 1)
			g.AddEdge(1, 3, 1)
			sim := Build(g)
			src, rcv := sim.AddHost(0), sim.AddHost(2)
			sim.FinishUnicast(UseOracle)
			group := addr.GroupForIndex(0)
			dep, err := sim.DeployRecipe(Recipe{
				Protocol:   name,
				Anchors:    map[addr.IP][]addr.IP{group: {sim.RouterAddr(0)}},
				FastTimers: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			sim.Run(2 * netsim.Second)
			rcv.Join(group)
			var pump func()
			pump = func() {
				SendData(src, group, 64)
				sim.Net.Sched.After(netsim.Second, pump)
			}
			pump()
			sim.Run(20 * netsim.Second)
			if rcv.Received[group] == 0 {
				t.Fatal("nothing delivered before the crash")
			}
			if dep.TotalState() == 0 || dep.StateAt(1) == 0 {
				t.Fatalf("no state to lose: total %d, transit router %d", dep.TotalState(), dep.StateAt(1))
			}
			if dep.ControlMessages() == 0 {
				t.Error("no control messages counted")
			}

			dep.Crash(1)
			if n := dep.StateAt(1); n != 0 {
				t.Fatalf("crashed router holds %d entries", n)
			}
			sim.Run(5 * netsim.Second)
			before := rcv.Received[group]
			sim.Run(5 * netsim.Second)
			if got := rcv.Received[group]; got != before {
				t.Errorf("%d packets crossed a crashed router", got-before)
			}
			dep.Restart(1)
			if n := dep.StateAt(1); n != 0 {
				t.Fatalf("restarted router came back with %d entries", n)
			}
			sim.Run(90 * netsim.Second)
			before = rcv.Received[group]
			sim.Run(10 * netsim.Second)
			if rcv.Received[group] == before {
				t.Error("delivery did not resume after the restart")
			}
			dep.Stop()
			if n := dep.TotalState(); n != 0 {
				t.Errorf("Stop left %d entries", n)
			}
		})
	}
}

// TestRecipeRefusesUnknownNames: a protocol or SPT policy outside the lists is
// an error naming it, never a default.
func TestRecipeRefusesUnknownNames(t *testing.T) {
	for _, rec := range []Recipe{{Protocol: "pim"}, {Protocol: "pim-sm", SPT: "sometimes"}} {
		sim := Build(topology.New(1))
		sim.FinishUnicast(UseOracle)
		_, err := sim.DeployRecipe(rec)
		if err == nil || !strings.Contains(err.Error(), "unknown") {
			t.Errorf("%+v: err = %v, want an unknown-name error", rec, err)
		}
	}
}

// TestRecipeTimerGrade pins the values the recipe writes into the engine
// configurations: the engine defaults without FastTimers, every clock of the one
// fast grade under FastTimers, and an explicit PruneHold over both.
func TestRecipeTimerGrade(t *testing.T) {
	chain := func() *Sim {
		g := topology.New(2)
		g.AddEdge(0, 1, 1)
		sim := Build(g)
		sim.FinishUnicast(UseOracle)
		return sim
	}
	deploy := func(rec Recipe) Deployment {
		dep, err := chain().DeployRecipe(rec)
		if err != nil {
			t.Fatal(err)
		}
		return dep
	}
	const s = netsim.Second
	sm := deploy(Recipe{Protocol: "pim-sm-shared", FastTimers: true}).(*PIMDeployment)
	if c := sm.Routers[0].Cfg; c.JoinPruneInterval != 20*s || c.QueryInterval != 10*s || c.RPReachInterval != 20*s {
		t.Errorf("fast pim-sm clocks: %+v", c)
	}
	if q := sm.Queriers[0]; q.QueryInterval != 10*s || q.HoldTime != 30*s {
		t.Errorf("fast IGMP clocks: query %v hold %v", q.QueryInterval, q.HoldTime)
	}
	for _, tc := range []struct {
		rec         Recipe
		prune, tick netsim.Time
	}{
		{Recipe{}, 120 * s, 30 * s},
		{Recipe{FastTimers: true}, 60 * s, 10 * s},
		{Recipe{FastTimers: true, PruneHold: 45 * s}, 45 * s, 10 * s},
		{Recipe{PruneHold: 300 * s}, 300 * s, 30 * s},
	} {
		tc.rec.Protocol = "pim-dm"
		if c := deploy(tc.rec).(*PIMDMDeployment).Routers[0].Cfg; c.PruneHoldTime != tc.prune || c.QueryInterval != tc.tick {
			t.Errorf("%+v: pim-dm prune hold %v query %v, want %v and %v", tc.rec, c.PruneHoldTime, c.QueryInterval, tc.prune, tc.tick)
		}
		tc.rec.Protocol = "dvmrp"
		if c := deploy(tc.rec).(*DVMRPDeployment).Routers[0].Cfg; c.PruneLifetime != tc.prune || c.ProbeInterval != tc.tick {
			t.Errorf("%+v: dvmrp prune lifetime %v probe %v, want %v and %v", tc.rec, c.PruneLifetime, c.ProbeInterval, tc.prune, tc.tick)
		}
		tc.rec.Protocol = "cbt"
		if c := deploy(tc.rec).(*CBTDeployment).Routers[0].Cfg; c.EchoInterval != tc.tick {
			t.Errorf("%+v: cbt echo %v, want %v", tc.rec, c.EchoInterval, tc.tick)
		}
		tc.rec.Protocol = "mospf"
		want := netsim.Time(0)
		if tc.rec.FastTimers {
			want = 20 * s
		}
		if got := deploy(tc.rec).(*MOSPFDeployment).Routers[0].RefreshInterval; got != want {
			t.Errorf("%+v: mospf refresh %v, want %v", tc.rec, got, want)
		}
	}
}

// TestMaxDataSizeCrossesEveryEngine: a MaxDataSize packet reaches a member
// two routers away under every protocol name — for sparse mode through the
// DR's Register encapsulation, the one wrap the constant leaves room for —
// and one byte more no longer fits that wrap.
func TestMaxDataSizeCrossesEveryEngine(t *testing.T) {
	send := func(name string, size int) int {
		g := topology.New(3)
		g.AddEdge(0, 1, 1)
		g.AddEdge(1, 2, 1)
		sim := Build(g)
		src, rcv := sim.AddHost(0), sim.AddHost(2)
		sim.FinishUnicast(UseOracle)
		group := addr.GroupForIndex(0)
		_, err := sim.DeployRecipe(Recipe{
			Protocol: name,
			Anchors:  map[addr.IP][]addr.IP{group: {sim.RouterAddr(1)}},
		})
		if err != nil {
			t.Fatal(err)
		}
		sim.Run(2 * netsim.Second)
		rcv.Join(group)
		sim.Run(5 * netsim.Second)
		SendData(src, group, size)
		sim.Run(5 * netsim.Second)
		return rcv.Received[group]
	}
	for _, name := range ProtocolNames() {
		if got := send(name, MaxDataSize); got != 1 {
			t.Errorf("%s: a MaxDataSize packet was received %d times, want 1", name, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MaxDataSize+1 crossed a Register encapsulation: the constant is not the bound")
		}
	}()
	send("pim-sm", MaxDataSize+1)
}

// TestObservationLanes pins WithTelemetry's one contract on 1 and 2 shards:
// WithInvariantChecker alone builds a lane and a checker per shard that see
// the engines' events (a forged stale-epoch timer published through a
// router's own bus becomes a violation), and a deployment handed fewer lanes
// than shards — one bus on a sharded network included — panics at deploy time
// instead of racing.
func TestObservationLanes(t *testing.T) {
	chain := func(shards int) *Sim {
		g := topology.New(4)
		for i := 0; i < 3; i++ {
			g.AddEdge(i, i+1, 1)
		}
		sim := Build(g)
		sim.AutoShardN(shards)
		sim.FinishUnicast(UseOracle)
		return sim
	}
	for _, shards := range []int{1, 2} {
		sim := chain(shards)
		dep := sim.Deploy(SparseMode, WithInvariantChecker()).(*PIMDeployment)
		if len(dep.checkers) != shards {
			t.Fatalf("shards=%d: %d checkers", shards, len(dep.checkers))
		}
		sim.Run(2 * netsim.Second)
		if vs := dep.Violations(); len(vs) != 0 {
			t.Fatalf("shards=%d: clean run violated: %v", shards, vs)
		}
		for i, r := range dep.Routers {
			r.Telemetry.Publish(telemetry.Event{Kind: telemetry.TimerFire, Router: i, Epoch: 99})
		}
		if vs := dep.Violations(); len(vs) != len(dep.Routers) {
			t.Errorf("shards=%d: %d forged stale timers, %d violations", shards, len(dep.Routers), len(vs))
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("one bus on a 2-shard network deployed")
		}
	}()
	chain(2).Deploy(SparseMode, WithTelemetry(telemetry.NewBus()))
}
