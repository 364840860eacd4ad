package scenario

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pim/internal/addr"
	"pim/internal/mfib"
	"pim/internal/netsim"
	"pim/internal/topology"
)

// arenaChain builds a three-router chain (sender behind r0, member behind
// r2, the RP at r0), deploys p and pumps one packet every 100 ms, then runs
// until the routers' forwarding state has settled.
func arenaChain(p Protocol) (*Sim, Deployment) {
	g := topology.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	sim := Build(g)
	src, rcv := sim.AddHost(0), sim.AddHost(2)
	sim.FinishUnicast(UseOracle)
	group := addr.GroupForIndex(0)
	dep := sim.Deploy(p, WithRPMapping(map[addr.IP][]addr.IP{group: {sim.RouterAddr(0)}}))
	sim.Run(2 * netsim.Second)
	rcv.Join(group)
	var pump func()
	pump = func() {
		SendData(src, group, 64)
		sim.Net.Sched.After(100*netsim.Millisecond, pump)
	}
	pump()
	sim.Run(20 * netsim.Second)
	return sim, dep
}

// TestSimulationArenaFootprint pins the MFIB entry arena's lifetime, as
// core's TestSimulationScratchFootprint pins the per-call scratch: every
// table of one simulation keeps its entries in that simulation's one
// arena, a second simulation gets its own, and a finished simulation's
// arena is collected with it. It then holds the arena's slot high-water
// across the four places an engine empties its whole table — a PIM-SM
// restart, a flood-and-prune (PIM-DM) restart, and a hundred MOSPF
// membership-LSA installs, each of which flushes every router's forwarding
// cache: each must return the table's slots to the arena's free list, so
// the rebuilt state recycles them and the high-water does not move. An
// engine that replaced its table instead would strand every slot the old
// one held.
func TestSimulationArenaFootprint(t *testing.T) {
	collected := new(atomic.Bool)
	func() {
		sim, dep := arenaChain(SparseMode)
		arena := netsim.Scratch[mfib.Arena](sim.Net)
		if arena.HighWater() < dep.TotalState() || dep.TotalState() == 0 {
			t.Fatalf("arena holds %d slots for %d entries", arena.HighWater(), dep.TotalState())
		}
		other, _ := arenaChain(DenseMode)
		if netsim.Scratch[mfib.Arena](other.Net) == arena {
			t.Fatal("a second simulation shares the first one's arena")
		}
		runtime.AddCleanup(arena, func(done *atomic.Bool) { done.Store(true) }, collected)
	}()
	for i := 0; i < 50 && !collected.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !collected.Load() {
		t.Fatal("a finished simulation's arena was never collected: something outside it keeps it alive")
	}

	for _, tc := range []struct {
		name  string
		proto Protocol
		empty func(*Sim, Deployment) // empties at least one table and lets the state regrow
	}{
		{"pim-sm restart", SparseMode, func(sim *Sim, dep Deployment) {
			dep.(*PIMDeployment).Routers[1].Restart()
			sim.Run(90 * netsim.Second) // past a periodic join/prune refresh
		}},
		{"pim-dm restart", DenseMode, func(sim *Sim, dep Deployment) {
			dep.(*PIMDMDeployment).Routers[1].Restart()
			sim.Run(10 * netsim.Second)
		}},
		{"mospf flushes", MOSPFMode, func(sim *Sim, dep Deployment) {
			r, lan := dep.(*MOSPFDeployment).Routers[2], sim.HostLANs[2].Ifaces[0]
			other := addr.GroupForIndex(1)
			for i := 0; i < 50; i++ {
				r.LocalJoin(lan, other)
				sim.Run(500 * netsim.Millisecond)
				r.LocalLeave(lan, other)
				sim.Run(500 * netsim.Millisecond)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim, dep := arenaChain(tc.proto)
			arena := netsim.Scratch[mfib.Arena](sim.Net)
			before, state := arena.HighWater(), dep.TotalState()
			tc.empty(sim, dep)
			if after := arena.HighWater(); after != before {
				t.Errorf("arena high-water moved %d -> %d slots (state %d -> %d)", before, after, state, dep.TotalState())
			}
			if dep.TotalState() != state {
				t.Errorf("vacuous: state did not regrow to %d entries, holds %d", state, dep.TotalState())
			}
		})
	}
}
