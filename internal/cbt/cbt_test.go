package cbt_test

import (
	"testing"

	"pim/internal/addr"
	"pim/internal/cbt"
	"pim/internal/metrics"
	"pim/internal/netsim"
	"pim/internal/scenario"
	"pim/internal/topology"
)

func TestMessageRoundTrip(t *testing.T) {
	for typ := byte(cbt.TypeJoinReq); typ <= cbt.TypeFlush; typ++ {
		m := &cbt.Message{Type: typ, Group: addr.GroupForIndex(2), Core: addr.V4(10, 200, 0, 1)}
		got, err := cbt.Unmarshal(m.Marshal())
		if err != nil || *got != *m {
			t.Fatalf("type %d: %+v %v", typ, got, err)
		}
	}
	if _, err := cbt.Unmarshal(make([]byte, 9)); err == nil {
		t.Error("short message accepted")
	}
	if _, err := cbt.Unmarshal(make([]byte, 10)); err == nil {
		t.Error("type 0 accepted")
	}
}

// star builds the Figure 1(c)-style layout: core at node 0, receivers and
// senders in three "domains" hanging off a line.
//
//	0(core) - 1 - 2
//	          |
//	          3
func starSim(t *testing.T) (*scenario.Sim, *scenario.CBTDeployment, addr.IP) {
	t.Helper()
	g := topology.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(1, 3, 1)
	sim := scenario.Build(g)
	for i := 0; i < 4; i++ {
		sim.AddHost(i)
	}
	sim.FinishUnicast(scenario.UseOracle)
	group := addr.GroupForIndex(0)
	dep := sim.Deploy(scenario.CBTMode, scenario.WithCBTConfig(cbt.Config{CoreMapping: map[addr.IP]addr.IP{group: sim.RouterAddr(0)}})).(*scenario.CBTDeployment)
	sim.Run(2 * netsim.Second)
	return sim, dep, group
}

func TestJoinAckBuildsTree(t *testing.T) {
	sim, dep, group := starSim(t)
	sim.Hosts[2][0].Join(group)
	sim.Run(2 * netsim.Second)
	// Routers 2 (leaf), 1 (transit), 0 (core) are on-tree; 3 is not.
	for _, i := range []int{0, 1, 2} {
		if !dep.Routers[i].OnTree(group) {
			t.Errorf("router %d not on tree", i)
		}
	}
	if dep.Routers[3].OnTree(group) {
		t.Error("router 3 should be off-tree")
	}
	if dep.Routers[3].StateCount() != 0 {
		t.Error("off-tree router holds state")
	}
}

func TestBidirectionalDelivery(t *testing.T) {
	sim, _, group := starSim(t)
	r2, r3 := sim.Hosts[2][0], sim.Hosts[3][0]
	r2.Join(group)
	r3.Join(group)
	sim.Run(2 * netsim.Second)
	// A member sender: data flows both up toward the core and down to the
	// sibling branch without passing the core twice.
	for i := 0; i < 5; i++ {
		scenario.SendData(r2, group, 64)
		sim.Run(500 * netsim.Millisecond)
	}
	if got := r3.Received[group]; got < 4 {
		t.Fatalf("sibling received %d packets", got)
	}
	// Sender does not hear its own traffic back (tree, no loops).
	if r2.Received[group] != 0 {
		t.Errorf("sender received %d copies of its own packets", r2.Received[group])
	}
}

func TestNonMemberSenderRelayedTowardCore(t *testing.T) {
	sim, _, group := starSim(t)
	receiver := sim.Hosts[2][0]
	receiver.Join(group)
	sim.Run(2 * netsim.Second)
	// Node 3's host never joined; its router is off-tree and must relay
	// data toward the core until the tree takes over.
	sender := sim.Hosts[3][0]
	for i := 0; i < 5; i++ {
		scenario.SendData(sender, group, 64)
		sim.Run(500 * netsim.Millisecond)
	}
	if got := receiver.Received[group]; got < 4 {
		t.Fatalf("receiver got %d packets from non-member sender", got)
	}
}

func TestQuitTearsDownLeafBranch(t *testing.T) {
	sim, dep, group := starSim(t)
	h2, h3 := sim.Hosts[2][0], sim.Hosts[3][0]
	h2.Join(group)
	h3.Join(group)
	sim.Run(2 * netsim.Second)
	h3.Leave(group)
	sim.Run(2 * netsim.Second)
	if dep.Routers[3].OnTree(group) {
		t.Error("router 3 still on tree after leave")
	}
	// Router 1 keeps serving branch 2.
	if !dep.Routers[1].OnTree(group) {
		t.Error("transit router quit despite remaining child")
	}
	// Now the last member leaves: the whole tree (except the core root)
	// should dissolve.
	h2.Leave(group)
	sim.Run(2 * netsim.Second)
	if dep.Routers[1].OnTree(group) || dep.Routers[2].OnTree(group) {
		t.Error("tree survived last leave")
	}
}

func TestJoinRetransmitsUntilAcked(t *testing.T) {
	// Cut the link mid-join: the join must retransmit and succeed after the
	// link is restored (explicit reliability).
	g := topology.New(2)
	g.AddEdge(0, 1, 1)
	sim := scenario.Build(g)
	h := sim.AddHost(1)
	sim.FinishUnicast(scenario.UseOracle)
	group := addr.GroupForIndex(0)
	dep := sim.Deploy(scenario.CBTMode, scenario.WithCBTConfig(cbt.Config{
		CoreMapping: map[addr.IP]addr.IP{group: sim.RouterAddr(0)},
		JoinRetry:   2 * netsim.Second,
	})).(*scenario.CBTDeployment)
	sim.Run(netsim.Second)
	// Break the path, then join: the first request is lost.
	sim.Net.SetLinkUp(sim.EdgeLinks[0], false)
	h.Join(group)
	sim.Run(3 * netsim.Second)
	if dep.Routers[1].OnTree(group) {
		t.Fatal("joined across a dead link?")
	}
	sim.Net.SetLinkUp(sim.EdgeLinks[0], true)
	sim.Run(5 * netsim.Second)
	if !dep.Routers[1].OnTree(group) {
		t.Fatal("join retransmission did not complete the handshake")
	}
}

// TestTrafficConcentration demonstrates the paper's Figure 1(c) point: with
// several member senders, every packet crosses the links near the core,
// concentrating traffic there.
func TestTrafficConcentration(t *testing.T) {
	sim, _, group := starSim(t)
	h0, h2, h3 := sim.Hosts[0][0], sim.Hosts[2][0], sim.Hosts[3][0]
	for _, h := range []interface{ Join(addr.IP, ...addr.IP) }{h0, h2, h3} {
		h.Join(group)
	}
	sim.Run(2 * netsim.Second)
	sim.Net.Stats.Reset()
	// Senders in both leaf domains.
	for i := 0; i < 10; i++ {
		scenario.SendData(h2, group, 64)
		scenario.SendData(h3, group, 64)
		sim.Run(200 * netsim.Millisecond)
	}
	// Link 0 (core—router1) carries every packet from both senders: it is
	// the concentration point.
	link0 := sim.Net.Stats.PerLink[sim.EdgeLinks[0].ID].DataPackets
	if link0 < 20 {
		t.Errorf("core link carried %d packets, want >= 20 (both senders)", link0)
	}
}

// TestParentFailureFlushAndRejoin exercises the keepalive machinery: when a
// transit router dies (links cut), downstream routers stop getting echo
// replies, flush their subtree state, and re-join over a surviving path.
func TestParentFailureFlushAndRejoin(t *testing.T) {
	// core(0) —— 1 —— 2(member), plus backup path 0 —— 3 —— 2.
	g := topology.New(4)
	g.AddEdge(0, 1, 1) // edge 0: primary
	g.AddEdge(1, 2, 1) // edge 1
	g.AddEdge(0, 3, 2) // edge 2: backup (slower)
	g.AddEdge(3, 2, 2) // edge 3
	sim := scenario.Build(g)
	member := sim.AddHost(2)
	sender := sim.AddHost(0)
	sim.FinishUnicast(scenario.UseOracle)
	group := addr.GroupForIndex(0)
	dep := sim.Deploy(scenario.CBTMode, scenario.WithCBTConfig(cbt.Config{
		CoreMapping:  map[addr.IP]addr.IP{group: sim.RouterAddr(0)},
		EchoInterval: 5 * netsim.Second,
	})).(*scenario.CBTDeployment)
	sim.Run(2 * netsim.Second)
	member.Join(group)
	sim.Run(2 * netsim.Second)
	if !dep.Routers[1].OnTree(group) {
		t.Fatal("primary path not on tree")
	}
	// Kill the primary path between the transit router and the member
	// (the core keeps its own address reachable).
	sim.Net.SetLinkUp(sim.EdgeLinks[1], false)
	// 3 missed echoes + rejoin.
	sim.Run(6 * 5 * netsim.Second)
	if !dep.Routers[2].OnTree(group) {
		t.Fatal("member router did not re-join after parent failure")
	}
	if !dep.Routers[3].OnTree(group) {
		t.Fatal("backup transit not on tree")
	}
	before := member.Received[group]
	for i := 0; i < 5; i++ {
		scenario.SendData(sender, group, 64)
		sim.Run(netsim.Second)
	}
	if member.Received[group]-before < 4 {
		t.Errorf("delivery after failover: %d of 5", member.Received[group]-before)
	}
}

// TestExplicitAckCountsAppearInLedger: CBT's control cost (joins, acks,
// echoes) is counted for the overhead comparison.
func TestControlMessageAccounting(t *testing.T) {
	sim, dep, group := starSim(t)
	sim.Hosts[2][0].Join(group)
	sim.Run(2 * netsim.Second)
	var joins, acks int64
	for _, r := range dep.Routers {
		joins += r.Metrics.Get(metrics.CtrlCBTJoin)
		acks += r.Metrics.Get(metrics.CtrlCBTAck)
	}
	if joins == 0 || acks == 0 {
		t.Errorf("joins=%d acks=%d — explicit handshake not counted", joins, acks)
	}
	// Echo keepalives accumulate over time.
	sim.Run(3 * cbt.DefaultEchoInterval)
	var echoes int64
	for _, r := range dep.Routers {
		echoes += r.Metrics.Get(metrics.CtrlCBTEcho)
	}
	if echoes == 0 {
		t.Error("no keepalive echoes counted")
	}
}
