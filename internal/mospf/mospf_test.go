package mospf_test

import (
	"testing"

	"pim/internal/addr"
	"pim/internal/metrics"
	"pim/internal/netsim"
	"pim/internal/scenario"
	"pim/internal/topology"
)

// build wires a diamond with an extra tail: 0-1-3, 0-2-3, 3-4.
func build(t *testing.T) (*scenario.Sim, *scenario.MOSPFDeployment) {
	t.Helper()
	g := topology.New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(2, 3, 5) // slower branch
	g.AddEdge(3, 4, 1)
	sim := scenario.Build(g)
	for i := 0; i < 5; i++ {
		sim.AddHost(i)
	}
	sim.FinishUnicast(scenario.UseOracle) // hosts/others may still need tables
	dep := sim.Deploy(scenario.MOSPFMode).(*scenario.MOSPFDeployment)
	sim.Run(netsim.Second)
	return sim, dep
}

func TestMembershipFloodsEverywhere(t *testing.T) {
	sim, dep := build(t)
	g := addr.GroupForIndex(0)
	sim.Hosts[4][0].Join(g)
	sim.Run(2 * netsim.Second)
	// Every router in the domain stores the membership row — the paper's
	// §1.1 scaling critique made visible.
	for i, r := range dep.Routers {
		if r.MembershipRows() != 1 {
			t.Errorf("router %d stores %d membership rows, want 1", i, r.MembershipRows())
		}
	}
}

func TestDeliveryOverShortestPath(t *testing.T) {
	sim, _ := build(t)
	g := addr.GroupForIndex(0)
	receiver := sim.Hosts[4][0]
	sender := sim.Hosts[0][0]
	receiver.Join(g)
	sim.Run(2 * netsim.Second)
	sim.Net.Stats.Reset()
	for i := 0; i < 5; i++ {
		scenario.SendData(sender, g, 64)
		sim.Run(500 * netsim.Millisecond)
	}
	if got := receiver.Received[g]; got != 5 {
		t.Fatalf("receiver got %d packets, want exactly 5 (no duplicates)", got)
	}
	// The fast branch 0-1-3 must carry the flow; the slow branch 0-2-3 not.
	fast := sim.Net.Stats.PerLink[sim.EdgeLinks[0].ID].DataPackets +
		sim.Net.Stats.PerLink[sim.EdgeLinks[2].ID].DataPackets
	slow := sim.Net.Stats.PerLink[sim.EdgeLinks[1].ID].DataPackets +
		sim.Net.Stats.PerLink[sim.EdgeLinks[3].ID].DataPackets
	if fast == 0 || slow != 0 {
		t.Errorf("fast-branch packets %d, slow-branch %d", fast, slow)
	}
}

func TestSPFRunsAreCountedAndCached(t *testing.T) {
	sim, dep := build(t)
	g := addr.GroupForIndex(0)
	sim.Hosts[4][0].Join(g)
	sim.Run(2 * netsim.Second)
	sender := sim.Hosts[0][0]
	for i := 0; i < 10; i++ {
		scenario.SendData(sender, g, 64)
		sim.Run(200 * netsim.Millisecond)
	}
	var spf int64
	for _, r := range dep.Routers {
		spf += r.Metrics.Get(metrics.SPFRuns)
	}
	if spf == 0 {
		t.Fatal("no SPF runs counted")
	}
	// The forwarding cache must amortize: far fewer SPF runs than
	// packets×routers.
	if spf > 10 {
		t.Errorf("SPF runs = %d, cache ineffective", spf)
	}
}

func TestMembershipChangeInvalidatesCache(t *testing.T) {
	sim, _ := build(t)
	g := addr.GroupForIndex(0)
	r4 := sim.Hosts[4][0]
	r1 := sim.Hosts[1][0]
	r4.Join(g)
	sim.Run(2 * netsim.Second)
	sender := sim.Hosts[0][0]
	scenario.SendData(sender, g, 64)
	sim.Run(netsim.Second)
	if r4.Received[g] != 1 {
		t.Fatalf("first phase delivery failed: %d", r4.Received[g])
	}
	// A new member joins on another branch: trees must be recomputed so it
	// receives subsequent packets.
	r1.Join(g)
	sim.Run(2 * netsim.Second)
	scenario.SendData(sender, g, 64)
	sim.Run(netsim.Second)
	if r1.Received[g] != 1 {
		t.Errorf("new member missed post-join packet: %d", r1.Received[g])
	}
	if r4.Received[g] != 2 {
		t.Errorf("old member lost delivery after cache invalidation: %d", r4.Received[g])
	}
}

func TestNoMembersNoForwarding(t *testing.T) {
	sim, dep := build(t)
	g := addr.GroupForIndex(0)
	sender := sim.Hosts[0][0]
	sim.Net.Stats.Reset()
	scenario.SendData(sender, g, 64)
	sim.Run(netsim.Second)
	// Only the sender's own LAN saw the packet; backbone stayed clean.
	for _, l := range sim.EdgeLinks {
		if n := sim.Net.Stats.PerLink[l.ID].DataPackets; n != 0 {
			t.Errorf("backbone link %d carried %d data packets", l.ID, n)
		}
	}
	if n := dep.Routers[0].Metrics.Get(metrics.DataNoState); n == 0 {
		_ = n // negative-cache entry may swallow it instead; both are fine
	}
}

func TestLeaveRefloodsAndStopsDelivery(t *testing.T) {
	sim, dep := build(t)
	g := addr.GroupForIndex(0)
	r4 := sim.Hosts[4][0]
	sender := sim.Hosts[0][0]
	r4.Join(g)
	sim.Run(2 * netsim.Second)
	scenario.SendData(sender, g, 64)
	sim.Run(netsim.Second)
	if r4.Received[g] != 1 {
		t.Fatalf("setup delivery failed")
	}
	r4.Leave(g)
	sim.Run(2 * netsim.Second)
	// Membership withdrawal reached every router.
	for i, r := range dep.Routers {
		if r.MembershipRows() != 0 {
			t.Errorf("router %d still stores %d membership rows", i, r.MembershipRows())
		}
	}
	scenario.SendData(sender, g, 64)
	sim.Run(netsim.Second)
	if r4.Received[g] != 1 {
		t.Errorf("delivery after leave: %d", r4.Received[g])
	}
}
