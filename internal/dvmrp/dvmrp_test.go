package dvmrp_test

import (
	"testing"

	"pim/internal/addr"
	"pim/internal/dvmrp"
	"pim/internal/igmp"
	"pim/internal/metrics"
	"pim/internal/netsim"
	"pim/internal/scenario"
	"pim/internal/topology"
)

func TestMessageRoundTrip(t *testing.T) {
	for _, typ := range []byte{dvmrp.TypeProbe, dvmrp.TypePrune, dvmrp.TypeGraft, dvmrp.TypeGraftAck} {
		m := &dvmrp.Message{Type: typ, Source: addr.V4(10, 100, 0, 1), Group: addr.GroupForIndex(3), Lifetime: 120}
		got, err := dvmrp.Unmarshal(m.Marshal())
		if err != nil || *got != *m {
			t.Fatalf("type %d: got %+v err %v", typ, got, err)
		}
	}
	if _, err := dvmrp.Unmarshal(make([]byte, 11)); err == nil {
		t.Error("short message accepted")
	}
	if _, err := dvmrp.Unmarshal(make([]byte, 12)); err == nil {
		t.Error("type 0 accepted")
	}
}

// lineSim builds a 5-router line: receiver host at 0, member-less host LAN
// at 2 (truncation target), sender at 4.
func lineSim(t *testing.T, pruneLifetime netsim.Time) (*scenario.Sim, *scenario.DVMRPDeployment, *igmp.Host, *igmp.Host) {
	t.Helper()
	g := topology.New(5)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1, 1)
	}
	sim := scenario.Build(g)
	receiver := sim.AddHost(0)
	sim.AddHost(2) // bystander host, never joins
	sender := sim.AddHost(4)
	sim.FinishUnicast(scenario.UseOracle)
	dep := sim.Deploy(scenario.DVMRPMode, scenario.WithDVMRPConfig(dvmrp.Config{PruneLifetime: pruneLifetime})).(*scenario.DVMRPDeployment)
	sim.Run(2 * netsim.Second)
	return sim, dep, receiver, sender
}

func TestFloodAndDeliver(t *testing.T) {
	sim, _, receiver, sender := lineSim(t, 0)
	g := addr.GroupForIndex(0)
	receiver.Join(g)
	sim.Run(2 * netsim.Second)
	for i := 0; i < 5; i++ {
		scenario.SendData(sender, g, 64)
		sim.Run(500 * netsim.Millisecond)
	}
	if got := receiver.Received[g]; got < 4 {
		t.Fatalf("receiver got %d packets", got)
	}
}

func TestTruncatedBroadcast(t *testing.T) {
	sim, _, receiver, sender := lineSim(t, 0)
	g := addr.GroupForIndex(0)
	receiver.Join(g)
	sim.Run(2 * netsim.Second)
	scenario.SendData(sender, g, 64)
	sim.Run(netsim.Second)
	// The member-less host LAN at router 2 must not carry data.
	lan2 := sim.HostLANs[2]
	if n := sim.Net.Stats.PerLink[lan2.ID].DataPackets; n != 1 {
		// 1 = the (unavoidable) trace of nothing beyond the sender's own
		// initial injection count on its own LAN; the bystander LAN index
		// differs, so expect exactly 0 here.
		if n != 0 {
			t.Errorf("member-less leaf LAN carried %d data packets", n)
		}
	}
}

func TestPruningStopsBroadcast(t *testing.T) {
	// No receivers at all: after the first packet floods and prunes return,
	// later packets must stay on the sender's first-hop only.
	sim, dep, _, sender := lineSim(t, 600*netsim.Second)
	g := addr.GroupForIndex(0)
	scenario.SendData(sender, g, 64)
	sim.Run(2 * netsim.Second)
	flood := sim.Net.Stats.Totals.DataPackets
	if flood == 0 {
		t.Fatal("first packet did not flood")
	}
	scenario.SendData(sender, g, 64)
	sim.Run(2 * netsim.Second)
	after := sim.Net.Stats.Totals.DataPackets
	// The second packet should cross at most the sender LAN + nothing else
	// (its first hop router has an empty oif list).
	if after-flood > 2 {
		t.Errorf("pruned tree still carried %d packets", after-flood)
	}
	if dep.Routers[4].StateCount() == 0 {
		t.Error("first-hop router lost its (S,G) state")
	}
	prunes := int64(0)
	for _, r := range dep.Routers {
		prunes += r.Metrics.Get(metrics.CtrlPrune)
	}
	if prunes == 0 {
		t.Error("no prunes were sent")
	}
}

func TestGrowBackRebroadcasts(t *testing.T) {
	// Short prune lifetime: after it expires, data floods again — the
	// Figure 1(b) periodic broadcast behaviour.
	sim, _, _, sender := lineSim(t, 10*netsim.Second)
	g := addr.GroupForIndex(0)
	scenario.SendData(sender, g, 64)
	sim.Run(5 * netsim.Second)
	afterPrune := sim.Net.Stats.Totals.DataPackets
	// Within the prune lifetime: quiet.
	scenario.SendData(sender, g, 64)
	sim.Run(2 * netsim.Second)
	quiet := sim.Net.Stats.Totals.DataPackets - afterPrune
	// After the lifetime: broadcast resumes.
	sim.Run(10 * netsim.Second)
	base := sim.Net.Stats.Totals.DataPackets
	scenario.SendData(sender, g, 64)
	sim.Run(2 * netsim.Second)
	regrow := sim.Net.Stats.Totals.DataPackets - base
	if quiet >= regrow {
		t.Errorf("no grow-back: quiet-phase packets %d, regrow-phase %d", quiet, regrow)
	}
}

func TestGraftSplicesNewMember(t *testing.T) {
	// Long prune lifetime; a member joining after pruning must graft the
	// branch back without waiting for grow-back.
	sim, _, receiver, sender := lineSim(t, 600*netsim.Second)
	g := addr.GroupForIndex(0)
	// First packet floods, everything prunes (no members).
	scenario.SendData(sender, g, 64)
	sim.Run(2 * netsim.Second)
	// Now the receiver joins: graft should travel upstream.
	receiver.Join(g)
	sim.Run(2 * netsim.Second)
	scenario.SendData(sender, g, 64)
	sim.Run(2 * netsim.Second)
	if receiver.Received[g] == 0 {
		t.Fatal("graft did not restore delivery")
	}
}

func TestRPFDropsOffPathDuplicates(t *testing.T) {
	// Diamond topology: 0-1-3 and 0-2-3. Flooding from 0 reaches 3 via both
	// branches; RPF must drop one of them so 3 forwards exactly once.
	g := topology.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(2, 3, 1)
	sim := scenario.Build(g)
	sender := sim.AddHost(0)
	receiver := sim.AddHost(3)
	sim.FinishUnicast(scenario.UseOracle)
	sim.Deploy(scenario.DVMRPMode)
	sim.Run(2 * netsim.Second)
	grp := addr.GroupForIndex(0)
	receiver.Join(grp)
	sim.Run(2 * netsim.Second)
	scenario.SendData(sender, grp, 64)
	sim.Run(2 * netsim.Second)
	if got := receiver.Received[grp]; got != 1 {
		t.Errorf("receiver got %d copies, want exactly 1 (RPF check)", got)
	}
}

func TestLeaveTriggersPrune(t *testing.T) {
	sim, dep, receiver, sender := lineSim(t, 600*netsim.Second)
	g := addr.GroupForIndex(0)
	receiver.Join(g)
	sim.Run(2 * netsim.Second)
	scenario.SendData(sender, g, 64)
	sim.Run(2 * netsim.Second)
	if receiver.Received[g] != 1 {
		t.Fatalf("setup delivery failed: %d", receiver.Received[g])
	}
	// The member leaves mid-flow: the branch prunes and traffic stops
	// crossing the backbone.
	receiver.Leave(g)
	sim.Run(2 * netsim.Second)
	before := sim.Net.Stats.Totals.DataPackets
	scenario.SendData(sender, g, 64)
	sim.Run(2 * netsim.Second)
	if extra := sim.Net.Stats.Totals.DataPackets - before; extra > 2 {
		t.Errorf("tree still carried %d packets after leave", extra)
	}
	prunes := int64(0)
	for _, r := range dep.Routers {
		prunes += r.Metrics.Get(metrics.CtrlPrune)
	}
	if prunes == 0 {
		t.Error("no prunes after leave")
	}
}
