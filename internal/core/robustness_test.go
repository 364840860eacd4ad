package core_test

import (
	"math/rand"
	"testing"

	"pim/internal/addr"
	"pim/internal/core"
	"pim/internal/metrics"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/scenario"
	"pim/internal/topology"
)

// TestSoftStateSurvivesControlLoss exercises the §2 robustness claim: PIM
// uses "periodic refreshes as its primary means of reliability", so losing
// a fraction of control messages must only delay, never break, tree
// formation and maintenance.
func TestSoftStateSurvivesControlLoss(t *testing.T) {
	g := topology.New(5)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1, 1)
	}
	sim := scenario.Build(g)
	receiver := sim.AddHost(0)
	sender := sim.AddHost(4)
	sim.FinishUnicast(scenario.UseOracle)
	group := addr.GroupForIndex(0)
	rp := sim.RouterAddr(2)
	dep := sim.Deploy(scenario.SparseMode, scenario.WithCoreConfig(core.Config{
		RPMapping:         map[addr.IP][]addr.IP{group: {rp}},
		JoinPruneInterval: 20 * netsim.Second, // faster refresh: shorter test
	})).(*scenario.PIMDeployment)
	// Drop 30% of PIM control messages, deterministically.
	rng := rand.New(rand.NewSource(5))
	dropped := 0
	sim.Net.Loss = func(from, to *netsim.Iface, pkt *packet.Packet) bool {
		if pkt.Protocol == packet.ProtoPIM && rng.Intn(10) < 3 {
			dropped++
			return true
		}
		return false
	}
	sim.Run(2 * netsim.Second)
	receiver.Join(group)
	// Give several refresh cycles for lost joins to be recovered.
	sim.Run(4 * 20 * netsim.Second)
	if dep.Routers[1].MFIB.Wildcard(group) == nil {
		t.Fatal("shared tree never formed under 30% control loss")
	}
	delivered0 := receiver.Received[group]
	for i := 0; i < 20; i++ {
		scenario.SendData(sender, group, 64)
		sim.Run(5 * netsim.Second)
	}
	got := receiver.Received[group] - delivered0
	// Data packets are not subject to the injected loss; once the tree
	// exists (and refreshes heal any state that lapses), delivery must be
	// nearly complete.
	if got < 16 {
		t.Errorf("delivered %d of 20 under control-plane loss", got)
	}
	if dropped == 0 {
		t.Fatal("loss injection never triggered")
	}
}

// TestStateRecoversAfterTotalControlBlackout drops ALL control traffic for
// a while — long enough for oif timers to expire — then restores it; the
// periodic refresh must rebuild the tree with no explicit recovery action.
func TestStateRecoversAfterTotalControlBlackout(t *testing.T) {
	g := topology.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	sim := scenario.Build(g)
	receiver := sim.AddHost(0)
	sender := sim.AddHost(2)
	sim.FinishUnicast(scenario.UseOracle)
	group := addr.GroupForIndex(0)
	rp := sim.RouterAddr(1)
	dep := sim.Deploy(scenario.SparseMode, scenario.WithCoreConfig(core.Config{
		RPMapping:         map[addr.IP][]addr.IP{group: {rp}},
		JoinPruneInterval: 10 * netsim.Second,
	})).(*scenario.PIMDeployment)
	sim.Run(2 * netsim.Second)
	receiver.Join(group)
	sim.Run(5 * netsim.Second)
	if dep.Routers[1].MFIB.Wildcard(group) == nil {
		t.Fatal("tree did not form")
	}
	// Blackout: every PIM message lost for 4 holdtimes.
	blackout := true
	sim.Net.Loss = func(from, to *netsim.Iface, pkt *packet.Packet) bool {
		return blackout && pkt.Protocol == packet.ProtoPIM
	}
	sim.Run(4 * 3 * 10 * netsim.Second)
	wc := dep.Routers[1].MFIB.Wildcard(group)
	now := sim.Net.Sched.Now()
	if wc != nil && wc.HasOIF(sim.Routers[1].Ifaces[0], now) {
		t.Fatal("state survived the blackout — holdtimes not enforced")
	}
	// Restore the control plane: the DR's periodic refresh re-joins.
	blackout = false
	sim.Run(3 * 10 * netsim.Second)
	scenario.SendData(sender, group, 64)
	sim.Run(2 * netsim.Second)
	if receiver.Received[group] == 0 {
		t.Error("delivery did not recover after blackout ended")
	}
}

// TestRPFDropCounting: packets arriving on the wrong interface are counted
// and never forwarded (the §1.3 fn. 4 "incoming interface check on all
// multicast data packets").
func TestRPFDropCounting(t *testing.T) {
	// Diamond so an off-RPF copy can be crafted: 0-1-3, 0-2-3.
	g := topology.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 5)
	g.AddEdge(1, 3, 1)
	g.AddEdge(2, 3, 5)
	sim := scenario.Build(g)
	receiver := sim.AddHost(3)
	sim.AddHost(0)
	sim.FinishUnicast(scenario.UseOracle)
	group := addr.GroupForIndex(0)
	rp := sim.RouterAddr(0) // RP on the far side: router 3 is a plain DR
	dep := sim.Deploy(scenario.SparseMode, scenario.WithCoreConfig(core.Config{RPMapping: map[addr.IP][]addr.IP{group: {rp}}})).(*scenario.PIMDeployment)
	sim.Run(2 * netsim.Second)
	receiver.Join(group)
	sim.Run(2 * netsim.Second)
	// Inject a forged data packet into router 3 via the slow (non-RPF)
	// interface: router 3's (*,G) incoming interface is the fast path via
	// router 1, so the copy arriving on the 2-3 link must fail the check.
	r3 := sim.Routers[3]
	forged := packet.New(addr.V4(10, 100, 0, 1), group, packet.ProtoUDP, make([]byte, 16))
	slowIface := r3.Ifaces[1] // edge 3 = 2-3 link
	r3.LocalSend(slowIface, forged)
	if got := dep.Routers[3].Metrics.Get(metrics.DataDropped); got != 1 {
		t.Errorf("rpfdrop = %d, want 1", got)
	}
	if receiver.Received[group] != 0 {
		t.Error("forged off-RPF packet was delivered")
	}
}

// TestReJoinAfterStateExpiry: membership persisting across a state lapse is
// re-established by IGMP-driven refresh without a new Join call.
func TestPeriodicRefreshKeepsLongLivedTreeAlive(t *testing.T) {
	sim, dep, receiver, sender, group, _ := fig34Topology(t, scenario.UseOracle)
	receiver.Join(group)
	// Run an hour of simulated time: dozens of holdtime periods.
	sim.Run(3600 * netsim.Second)
	if dep.Routers[1].MFIB.Wildcard(group) == nil {
		t.Fatal("tree decayed despite live membership")
	}
	scenario.SendData(sender, group, 64)
	sim.Run(2 * netsim.Second)
	if receiver.Received[group] == 0 {
		t.Error("no delivery after an hour of idle maintenance")
	}
}
