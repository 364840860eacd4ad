package core_test

import (
	"slices"
	"testing"

	"pim/internal/addr"
	"pim/internal/core"
	"pim/internal/igmp"
	"pim/internal/metrics"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/pimmsg"
	"pim/internal/scenario"
	"pim/internal/topology"
)

// fig34Topology is the paper's Figure 3/4 layout: receiver—A—B—C(RP)—D—sender.
//
//	graph nodes: 0=A 1=B 2=C(RP) 3=D
func fig34Topology(t *testing.T, mode scenario.UnicastMode) (*scenario.Sim, *scenario.PIMDeployment, *igmp.Host, *igmp.Host, addr.IP, addr.IP) {
	t.Helper()
	g := topology.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	sim := scenario.Build(g)
	receiver := sim.AddHost(0)
	sender := sim.AddHost(3)
	sim.FinishUnicast(mode)
	sim.Run(sim.ConvergenceTime())
	group := addr.GroupForIndex(0)
	rp := sim.RouterAddr(2)
	dep := sim.Deploy(scenario.SparseMode, scenario.WithCoreConfig(core.Config{RPMapping: map[addr.IP][]addr.IP{group: {rp}}})).(*scenario.PIMDeployment)
	sim.Run(2 * netsim.Second) // hello exchange
	return sim, dep, receiver, sender, group, rp
}

// TestFigure4SharedTreeSetup asserts the exact (*,G) state of Figure 4 at
// each hop after a receiver joins.
func TestFigure4SharedTreeSetup(t *testing.T) {
	sim, dep, receiver, _, group, rp := fig34Topology(t, scenario.UseOracle)
	receiver.Join(group)
	sim.Run(2 * netsim.Second)

	// Router A (index 0): oif = host LAN, iif = toward B, RP address = C.
	a := dep.Routers[0]
	wcA := a.MFIB.Wildcard(group)
	if wcA == nil {
		t.Fatal("A has no (*,G) entry")
	}
	if wcA.RP != rp {
		t.Errorf("A RP = %v, want %v", wcA.RP, rp)
	}
	if !wcA.Wildcard {
		t.Error("WC bit not set on A's entry")
	}
	now := sim.Net.Sched.Now()
	lanIface := sim.Routers[0].Ifaces[1] // stub LAN added after backbone iface
	if !wcA.HasOIF(lanIface, now) {
		t.Error("A's oif list missing the member LAN")
	}
	if wcA.IIF != sim.Routers[0].Ifaces[0] {
		t.Errorf("A iif = %v, want backbone toward B", wcA.IIF)
	}

	// Router B: oif = iface to A, iif = toward C.
	b := dep.Routers[1]
	wcB := b.MFIB.Wildcard(group)
	if wcB == nil {
		t.Fatal("B has no (*,G) entry")
	}
	ifaceToA := sim.Routers[1].Ifaces[0]
	ifaceToC := sim.Routers[1].Ifaces[1]
	if !wcB.HasOIF(ifaceToA, now) {
		t.Error("B's oif list missing iface to A")
	}
	if wcB.IIF != ifaceToC {
		t.Errorf("B iif = %v, want iface to C", wcB.IIF)
	}

	// Router C (the RP): oif = iface to B, iif = null (§3.2).
	c := dep.Routers[2]
	wcC := c.MFIB.Wildcard(group)
	if wcC == nil {
		t.Fatal("C has no (*,G) entry")
	}
	if wcC.IIF != nil {
		t.Errorf("RP iif = %v, want nil", wcC.IIF)
	}
	if !wcC.HasOIF(sim.Routers[2].Ifaces[0], now) {
		t.Error("C's oif list missing iface to B")
	}
	// Router D: no state (no receivers or senders behind it yet).
	if dep.Routers[3].StateCount() != 0 {
		t.Errorf("D has %d entries, want 0", dep.Routers[3].StateCount())
	}
}

// TestFigure3Rendezvous walks the full Figure 3 sequence: receiver joins
// toward the RP, sender registers, RP joins the source, and data flows
// end-to-end.
func TestFigure3Rendezvous(t *testing.T) {
	sim, dep, receiver, sender, group, _ := fig34Topology(t, scenario.UseOracle)
	receiver.Join(group)
	sim.Run(2 * netsim.Second)

	// Sender transmits; first packet travels as a register, RP joins back.
	for i := 0; i < 5; i++ {
		scenario.SendData(sender, group, 64)
		sim.Run(500 * netsim.Millisecond)
	}
	if got := receiver.Received[group]; got < 4 {
		t.Fatalf("receiver got %d packets, want >=4", got)
	}

	// RP built (S,G) toward the source.
	src := sender.Iface.Addr
	c := dep.Routers[2]
	sgC := c.MFIB.SG(src, group)
	if sgC == nil {
		t.Fatal("RP has no (S,G) entry")
	}
	if sgC.IIF != sim.Routers[2].Ifaces[1] {
		t.Errorf("RP (S,G) iif = %v, want iface toward D", sgC.IIF)
	}
	// D (sender's DR) has (S,G) with oif toward the RP and a nil upstream.
	d := dep.Routers[3]
	sgD := d.MFIB.SG(src, group)
	if sgD == nil {
		t.Fatal("D has no (S,G) entry")
	}
	now := sim.Net.Sched.Now()
	if !sgD.HasOIF(sim.Routers[3].Ifaces[0], now) {
		t.Error("D (S,G) missing oif toward RP")
	}
	// Registers must have stopped once native state formed: send more data
	// and confirm the register counter stays put.
	regs := d.Metrics.Get(metrics.CtrlRegister)
	if regs == 0 {
		t.Fatal("no registers were sent at all")
	}
	for i := 0; i < 5; i++ {
		scenario.SendData(sender, group, 64)
		sim.Run(100 * netsim.Millisecond)
	}
	if after := d.Metrics.Get(metrics.CtrlRegister); after != regs {
		t.Errorf("registers kept flowing after native path: %d -> %d", regs, after)
	}
}

// fig5Topology realizes Figure 5: shared tree A—B—C(RP), source behind D,
// C—D for the RP path and B—D as the shortcut the SPT uses.
//
//	0=A 1=B 2=C(RP) 3=D
func fig5Topology(t *testing.T, policy core.SPTPolicy) (*scenario.Sim, *scenario.PIMDeployment, *igmp.Host, *igmp.Host, addr.IP) {
	t.Helper()
	g := topology.New(4)
	g.AddEdge(0, 1, 1) // A-B (edge 0)
	g.AddEdge(1, 2, 1) // B-C (edge 1)
	g.AddEdge(2, 3, 1) // C-D (edge 2)
	g.AddEdge(1, 3, 1) // B-D (edge 3): SPT shortcut
	sim := scenario.Build(g)
	receiver := sim.AddHost(0)
	sender := sim.AddHost(3)
	sim.FinishUnicast(scenario.UseOracle)
	group := addr.GroupForIndex(0)
	rp := sim.RouterAddr(2)
	dep := sim.Deploy(scenario.SparseMode, scenario.WithCoreConfig(core.Config{
		RPMapping: map[addr.IP][]addr.IP{group: {rp}},
		SPTPolicy: policy,
		// Threshold values exercised by the threshold test.
		SPTPackets: 3,
		SPTWindow:  20 * netsim.Second,
	})).(*scenario.PIMDeployment)
	sim.Run(2 * netsim.Second)
	receiver.Join(group)
	sim.Run(2 * netsim.Second)
	return sim, dep, receiver, sender, group
}

// TestFigure5SPTSwitch verifies the §3.3 transition: (Sn,G) created with a
// cleared SPT bit, the bit set when data arrives over the shortest path,
// and the prune with the RP bit sent toward the RP at the divergence point.
func TestFigure5SPTSwitch(t *testing.T) {
	sim, dep, receiver, sender, group := fig5Topology(t, core.SwitchImmediate)
	src := sender.Iface.Addr
	for i := 0; i < 8; i++ {
		scenario.SendData(sender, group, 64)
		sim.Run(500 * netsim.Millisecond)
	}
	now := sim.Net.Sched.Now()

	// B is the divergence point: its (S,G) iif must be the B—D shortcut
	// (edge 3 => B's third interface), with the SPT bit set.
	b := dep.Routers[1]
	sgB := b.MFIB.SG(src, group)
	if sgB == nil {
		t.Fatal("B has no (S,G) entry")
	}
	ifaceToD := sim.Routers[1].Ifaces[2]
	if sgB.IIF != ifaceToD {
		t.Fatalf("B (S,G) iif = %v, want shortcut to D", sgB.IIF)
	}
	if !sgB.SPTBit {
		t.Error("B SPT bit not set after native arrivals")
	}
	// A joined the SPT and kept its local branch.
	a := dep.Routers[0]
	sgA := a.MFIB.SG(src, group)
	if sgA == nil {
		t.Fatal("A has no (S,G) entry")
	}
	if !sgA.SPTBit {
		t.Error("A SPT bit not set")
	}
	if !sgA.HasOIF(sim.Routers[0].Ifaces[1], now) {
		t.Error("A (S,G) lost the member LAN oif")
	}
	// C holds the negative cache: (S,G)RPbit with B's interface pruned.
	c := dep.Routers[2]
	rpt := c.MFIB.SGRpt(src, group)
	if rpt == nil {
		t.Fatal("RP has no (S,G)RPbit negative cache")
	}
	ifaceToB := sim.Routers[2].Ifaces[0]
	if o := rpt.OIF(ifaceToB.Index); o == nil || !o.Live(now) {
		t.Error("negative cache does not prune the B interface")
	}
	// Data keeps arriving (now via the SPT).
	before := receiver.Received[group]
	for i := 0; i < 5; i++ {
		scenario.SendData(sender, group, 64)
		sim.Run(200 * netsim.Millisecond)
	}
	if receiver.Received[group] <= before {
		t.Error("no data delivered over the SPT")
	}
	// And the C—B link no longer carries data for this source: the RP has
	// pruned it, so new packets use only D—B.
	cbLink := sim.EdgeLinks[1] // B-C
	cbData := sim.Net.Stats.PerLink[cbLink.ID].DataPackets
	for i := 0; i < 5; i++ {
		scenario.SendData(sender, group, 64)
		sim.Run(200 * netsim.Millisecond)
	}
	if after := sim.Net.Stats.PerLink[cbLink.ID].DataPackets; after != cbData {
		t.Errorf("B—C still carries data after prune: %d -> %d", cbData, after)
	}
}

// TestSPTSwitchNever confirms the configuration knob: data flows through
// the RP indefinitely and no (S,G) entry forms at the receiver's DR.
func TestSPTSwitchNever(t *testing.T) {
	sim, dep, receiver, sender, group := fig5Topology(t, core.SwitchNever)
	src := sender.Iface.Addr
	for i := 0; i < 10; i++ {
		scenario.SendData(sender, group, 64)
		sim.Run(500 * netsim.Millisecond)
	}
	if got := receiver.Received[group]; got < 8 {
		t.Fatalf("receiver got %d packets", got)
	}
	if dep.Routers[0].MFIB.SG(src, group) != nil {
		t.Error("A created (S,G) despite SwitchNever")
	}
	if dep.Routers[1].MFIB.SG(src, group) != nil {
		t.Error("B created (S,G) despite SwitchNever")
	}
}

// TestSPTSwitchThreshold verifies the m-packets-in-n-seconds policy (§3.3).
func TestSPTSwitchThreshold(t *testing.T) {
	sim, dep, _, sender, group := fig5Topology(t, core.SwitchThreshold)
	src := sender.Iface.Addr
	// Two packets: below the threshold of 3.
	for i := 0; i < 2; i++ {
		scenario.SendData(sender, group, 64)
		sim.Run(500 * netsim.Millisecond)
	}
	if dep.Routers[0].MFIB.SG(src, group) != nil {
		t.Fatal("A switched below threshold")
	}
	// Third packet within the window triggers the switch.
	scenario.SendData(sender, group, 64)
	sim.Run(2 * netsim.Second)
	if dep.Routers[0].MFIB.SG(src, group) == nil {
		t.Fatal("A did not switch at threshold")
	}
}

// TestProtocolIndependence runs the identical rendezvous scenario over the
// distance-vector and link-state unicast substrates (§2's "Routing Protocol
// Independent" requirement).
func TestProtocolIndependence(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode scenario.UnicastMode
	}{
		{"distance-vector", scenario.UseDV},
		{"link-state", scenario.UseLS},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim, _, receiver, sender, group, _ := fig34Topology(t, tc.mode)
			receiver.Join(group)
			sim.Run(2 * netsim.Second)
			for i := 0; i < 6; i++ {
				scenario.SendData(sender, group, 64)
				sim.Run(500 * netsim.Millisecond)
			}
			if got := receiver.Received[group]; got < 4 {
				t.Fatalf("receiver got %d packets over %s", got, tc.name)
			}
		})
	}
}

// TestSoftStateExpiry removes the receiver and confirms all shared-tree
// state dissolves without explicit teardown (§2 robustness, §3.6).
func TestSoftStateExpiry(t *testing.T) {
	sim, dep, receiver, _, group, _ := fig34Topology(t, scenario.UseOracle)
	receiver.Join(group)
	sim.Run(2 * netsim.Second)
	if dep.Routers[1].MFIB.Wildcard(group) == nil {
		t.Fatal("tree did not form")
	}
	receiver.Leave(group)
	// Holdtime is 3×60 s; deletion lags one maintenance round behind.
	sim.Run(6 * core.DefaultJoinPruneInterval)
	for i, r := range dep.Routers {
		if n := r.StateCount(); n != 0 {
			t.Errorf("router %d still holds %d entries", i, n)
		}
	}
}

// TestLeaveTriggersPrune checks the fast path: an IGMP leave prunes the
// tree upstream well before soft-state expiry.
func TestLeaveTriggersPrune(t *testing.T) {
	sim, dep, receiver, _, group, _ := fig34Topology(t, scenario.UseOracle)
	receiver.Join(group)
	sim.Run(2 * netsim.Second)
	receiver.Leave(group)
	sim.Run(5 * netsim.Second)
	now := sim.Net.Sched.Now()
	// B's oif toward A must be gone (prune propagated), even though the
	// entries may linger until DeleteAt.
	wcB := dep.Routers[1].MFIB.Wildcard(group)
	if wcB != nil && wcB.HasOIF(sim.Routers[1].Ifaces[0], now) {
		t.Error("B still forwards toward A after leave")
	}
}

// TestRPFailover exercises §3.9: when the primary RP dies, receivers stop
// seeing RP-reachability messages and fail over to the alternate; data
// delivery resumes because sources register toward every RP.
func TestRPFailover(t *testing.T) {
	// Diamond: A(receiver) — B — C(RP1), A — ... D(RP2) reachable another
	// way, sender behind E connected to both RPs.
	//   0=A 1=B 2=RP1 3=RP2 4=E(sender DR)
	g := topology.New(5)
	g.AddEdge(0, 1, 1) // A-B
	g.AddEdge(1, 2, 1) // B-RP1
	g.AddEdge(1, 3, 2) // B-RP2 (longer)
	g.AddEdge(2, 4, 1) // RP1-E
	g.AddEdge(3, 4, 1) // RP2-E
	sim := scenario.Build(g)
	receiver := sim.AddHost(0)
	sender := sim.AddHost(4)
	sim.FinishUnicast(scenario.UseOracle)
	group := addr.GroupForIndex(0)
	rp1, rp2 := sim.RouterAddr(2), sim.RouterAddr(3)
	dep := sim.Deploy(scenario.SparseMode, scenario.WithCoreConfig(core.Config{
		RPMapping: map[addr.IP][]addr.IP{group: {rp1, rp2}},
		SPTPolicy: core.SwitchNever, // keep the flow on the RP trees
	})).(*scenario.PIMDeployment)
	sim.Run(2 * netsim.Second)
	receiver.Join(group)
	sim.Run(2 * netsim.Second)
	// Steady traffic.
	stop := false
	var pump func()
	pump = func() {
		if stop {
			return
		}
		scenario.SendData(sender, group, 64)
		sim.Net.Sched.After(netsim.Second, pump)
	}
	sim.Net.Sched.After(0, pump)
	sim.Run(10 * netsim.Second)
	if receiver.Received[group] < 5 {
		t.Fatalf("no steady flow before failover: %d", receiver.Received[group])
	}
	// Kill RP1 by cutting both its links.
	sim.Net.SetLinkUp(sim.EdgeLinks[1], false)
	sim.Net.SetLinkUp(sim.EdgeLinks[3], false)
	// Run past 3× RP-reach interval plus re-join time.
	sim.Run(4 * core.DefaultRPReachInterval)
	wcA := dep.Routers[0].MFIB.Wildcard(group)
	if wcA == nil {
		t.Fatal("A lost all (*,G) state")
	}
	if wcA.RP != rp2 {
		t.Fatalf("A still on RP %v, want failover to %v", wcA.RP, rp2)
	}
	before := receiver.Received[group]
	sim.Run(10 * netsim.Second)
	stop = true
	if receiver.Received[group] <= before {
		t.Error("no data delivered after RP failover")
	}
}

// TestUnicastRouteChange exercises §3.8: after the primary path fails, the
// tree re-forms over the backup path and delivery continues.
func TestUnicastRouteChange(t *testing.T) {
	// Square: receiver at 0, RP at 3; paths 0-1-3 (cheap) and 0-2-3.
	g := topology.New(4)
	g.AddEdge(0, 1, 1) // edge 0
	g.AddEdge(1, 3, 1) // edge 1
	g.AddEdge(0, 2, 3) // edge 2
	g.AddEdge(2, 3, 3) // edge 3
	sim := scenario.Build(g)
	receiver := sim.AddHost(0)
	sender := sim.AddHost(3) // sender next to the RP
	sim.FinishUnicast(scenario.UseOracle)
	group := addr.GroupForIndex(0)
	rp := sim.RouterAddr(3)
	dep := sim.Deploy(scenario.SparseMode, scenario.WithCoreConfig(core.Config{
		RPMapping: map[addr.IP][]addr.IP{group: {rp}},
		SPTPolicy: core.SwitchNever,
	})).(*scenario.PIMDeployment)
	sim.Run(2 * netsim.Second)
	receiver.Join(group)
	sim.Run(2 * netsim.Second)
	wc := dep.Routers[0].MFIB.Wildcard(group)
	if wc == nil || wc.IIF != sim.Routers[0].Ifaces[0] {
		t.Fatalf("initial iif wrong: %v", wc)
	}
	// Cut the cheap path; the oracle recomputes and PIM must re-anchor.
	sim.Net.SetLinkUp(sim.EdgeLinks[0], false)
	sim.Run(2 * netsim.Second)
	wc = dep.Routers[0].MFIB.Wildcard(group)
	if wc == nil {
		t.Fatal("(*,G) vanished on route change")
	}
	if wc.IIF != sim.Routers[0].Ifaces[1] {
		t.Fatalf("iif did not move to backup path: %v", wc.IIF)
	}
	for i := 0; i < 6; i++ {
		scenario.SendData(sender, group, 64)
		sim.Run(500 * netsim.Millisecond)
	}
	if receiver.Received[group] < 4 {
		t.Errorf("only %d packets after reroute", receiver.Received[group])
	}
}

// rerouteAtRP is recv — r0 — r1=RP — r2 — r3 — send, with the detour
// r1 — r4 — r3, shared tree only, after three packets: the RP's (S,G) has
// no oif of its own and serves the receiver through (*,G). Cutting edge 1
// (r1 — r2) moves the RP's route toward the source onto the detour.
func rerouteAtRP(t *testing.T) (*scenario.Sim, *core.Router, *igmp.Host, addr.IP, addr.IP) {
	t.Helper()
	g := topology.New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(1, 4, 2)
	g.AddEdge(4, 3, 2)
	sim := scenario.Build(g)
	receiver := sim.AddHost(0)
	sender := sim.AddHost(3)
	sim.FinishUnicast(scenario.UseOracle)
	group := addr.GroupForIndex(0)
	dep := sim.Deploy(scenario.SparseMode, scenario.WithCoreConfig(core.Config{
		RPMapping: map[addr.IP][]addr.IP{group: {sim.RouterAddr(1)}},
		SPTPolicy: core.SwitchNever,
	})).(*scenario.PIMDeployment)
	sim.Run(2 * netsim.Second)
	receiver.Join(group)
	sim.Run(2 * netsim.Second)
	for i := 0; i < 3; i++ {
		scenario.SendData(sender, group, 64)
		sim.Run(500 * netsim.Millisecond)
	}
	src, rp := sender.Iface.Addr, dep.Routers[1]
	if sg := rp.MFIB.SG(src, group); sg == nil || !sg.OIFEmpty(sim.Net.Sched.Now()) || receiver.Received[group] == 0 {
		t.Fatalf("RP's (S,G) = %v, want one with no oif of its own serving the receiver", sg)
	}
	return sim, rp, receiver, src, group
}

// TestRPRejoinsSourceOnRouteChange is §3.8 at the RP: an RP's (S,G) that
// forwards only through the inherited (*,G) list has no oif of its own,
// yet when unicast moves its route toward the source it must join out the
// new interface at once, not at its next periodic refresh.
// TestUnicastRouteChange covers the (*,G) side.
func TestRPRejoinsSourceOnRouteChange(t *testing.T) {
	sim, rp, _, src, group := rerouteAtRP(t)
	sg := rp.MFIB.SG(src, group)

	var joinedOn *netsim.Iface
	sim.Net.Trace = func(ev netsim.TraceEvent) {
		if ev.From.Node != sim.Routers[1] || ev.Pkt.Protocol != packet.ProtoPIM || joinedOn != nil {
			return
		}
		if typ, body, err := pimmsg.Open(ev.Pkt.Payload); err == nil && typ == pimmsg.TypeJoinPrune {
			m, err := pimmsg.UnmarshalJoinPrune(body)
			if err != nil {
				t.Fatal(err)
			}
			for _, grp := range m.Groups {
				if slices.Contains(grp.Joins, pimmsg.Addr{Addr: src}) {
					joinedOn = ev.From
				}
			}
		}
	}
	sim.Net.SetLinkUp(sim.EdgeLinks[1], false)
	sim.Run(10 * netsim.Millisecond)
	sim.Net.Trace = nil
	if sg = rp.MFIB.SG(src, group); sg == nil || sg.IIF == nil || sg.IIF.Link != sim.EdgeLinks[3] {
		t.Fatalf("RP's (S,G) = %v, want its iif moved onto the r1—r4 detour", sg)
	}
	if joinedOn != sg.IIF {
		t.Fatalf("no (S,G) join out the new RPF interface %v within 10 ms of the route change", sg.IIF)
	}
}

// TestRPForwardsRegistersAfterRouteChange: native data set the RP's SPT
// bit, so it dropped Registers as redundant. Once unicast moves its route
// toward the source, no native data arrives on the new iif yet, so the
// bit clears and the next Register goes down the shared tree (§3.8).
func TestRPForwardsRegistersAfterRouteChange(t *testing.T) {
	sim, rp, receiver, src, group := rerouteAtRP(t)
	if sg := rp.MFIB.SG(src, group); !sg.SPTBit {
		t.Fatalf("RP's (S,G) = %v, want the SPT bit set by native data", sg)
	}
	sim.Net.SetLinkUp(sim.EdgeLinks[1], false)
	sim.Run(10 * netsim.Millisecond)

	// The source's DR r3 registers one packet; r4 relays it to the RP.
	inner, err := packet.New(src, group, packet.ProtoUDP, make([]byte, 8)).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	body := pimmsg.Envelope(pimmsg.TypeRegister, (&pimmsg.Register{Inner: inner}).Marshal())
	toRP, atRP := sim.EdgeLinks[3].Ifaces[1], sim.EdgeLinks[3].Ifaces[0]
	if toRP.Node != sim.Routers[4] {
		toRP, atRP = atRP, toRP
	}
	before := receiver.Received[group]
	toRP.Node.Send(toRP, packet.New(sim.RouterAddr(3), sim.RouterAddr(1), packet.ProtoPIMData, body), atRP.Addr)
	sim.Run(10 * netsim.Millisecond)
	if got := receiver.Received[group] - before; got != 1 {
		t.Errorf("receiver got %d copies of the registered packet, want 1", got)
	}
}

// TestSparseModeRequiresRPMapping: groups without an RP mapping are not
// built as sparse-mode state (§3.1).
func TestSparseModeRequiresRPMapping(t *testing.T) {
	sim, dep, receiver, _, _, _ := fig34Topology(t, scenario.UseOracle)
	unmapped := addr.GroupForIndex(42)
	receiver.Join(unmapped)
	sim.Run(2 * netsim.Second)
	if dep.Routers[0].MFIB.Wildcard(unmapped) != nil {
		t.Error("state created for unmapped group")
	}
}

// TestHostSuppliedRPMapping: the paper's host RPMap message (§3.1 fn. 9)
// provides the mapping when configuration does not.
func TestHostSuppliedRPMapping(t *testing.T) {
	g := topology.New(2)
	g.AddEdge(0, 1, 1)
	sim := scenario.Build(g)
	receiver := sim.AddHost(0)
	sender := sim.AddHost(1)
	sim.FinishUnicast(scenario.UseOracle)
	dep := sim.Deploy(scenario.SparseMode, scenario.WithCoreConfig(core.Config{})).(*scenario.PIMDeployment) // no static mapping at all
	sim.Run(2 * netsim.Second)
	group := addr.GroupForIndex(0)
	rp := sim.RouterAddr(1)
	receiver.Join(group, rp) // host advertises the RP
	sim.Run(2 * netsim.Second)
	if dep.Routers[0].MFIB.Wildcard(group) == nil {
		t.Fatal("host-provided RP mapping ignored")
	}
	// Sender side learns the mapping the same way: its DR is the RP here,
	// which still needs the mapping to accept the source.
	dep.Routers[1].LearnRPMap(group, []addr.IP{rp})
	for i := 0; i < 4; i++ {
		scenario.SendData(sender, group, 64)
		sim.Run(500 * netsim.Millisecond)
	}
	if receiver.Received[group] == 0 {
		t.Error("no delivery with host-supplied mapping")
	}
}

// TestDRElection: on a shared LAN with two routers, only the higher-address
// router (the DR) creates state for local members (§3.7).
func TestDRElection(t *testing.T) {
	// Hand-built: two routers share the host LAN and each connects to an
	// upstream RP router.
	net := netsim.NewNetwork()
	rLow := net.AddNode("rlow")
	rHigh := net.AddNode("rhigh")
	rpNode := net.AddNode("rp")
	host := net.AddNode("h")

	lanLow := net.AddIface(rLow, addr.V4(10, 100, 0, 1))
	lanHigh := net.AddIface(rHigh, addr.V4(10, 100, 0, 2))
	lanHost := net.AddIface(host, addr.V4(10, 100, 0, 9))
	// LAN slower than the uplinks so the RP prefix routes via the direct
	// links, keeping the shared tree off the transit path through rlow.
	net.ConnectLAN(2*netsim.Millisecond, lanLow, lanHigh, lanHost)

	upLow := net.AddIface(rLow, addr.V4(10, 200, 0, 1))
	upRP1 := net.AddIface(rpNode, addr.V4(10, 200, 0, 2))
	net.Connect(upLow, upRP1, netsim.Millisecond)
	upHigh := net.AddIface(rHigh, addr.V4(10, 201, 0, 1))
	upRP2 := net.AddIface(rpNode, addr.V4(10, 201, 0, 2))
	net.Connect(upHigh, upRP2, netsim.Millisecond)

	oracle := unicastOracle(net)
	group := addr.GroupForIndex(0)
	rp := addr.V4(10, 200, 0, 2)
	cfg := core.Config{RPMapping: map[addr.IP][]addr.IP{group: {rp}}}
	routers := map[string]*core.Router{}
	for _, nd := range []*netsim.Node{rLow, rHigh, rpNode} {
		r := core.New(nd, cfg, oracle.RouterFor(nd))
		q := igmp.NewQuerier(nd)
		q.OnJoin = func(ifc *netsim.Iface, g addr.IP) { r.LocalJoin(ifc, g) }
		q.OnLeave = func(ifc *netsim.Iface, g addr.IP) { r.LocalLeave(ifc, g) }
		r.Start()
		q.Start()
		routers[nd.Name] = r
	}
	h := igmp.NewHost(host, lanHost)
	net.Sched.RunUntil(2 * netsim.Second)

	if routers["rlow"].IsDR(lanLow) {
		t.Error("low-address router claims DR")
	}
	if !routers["rhigh"].IsDR(lanHigh) {
		t.Error("high-address router does not claim DR")
	}
	h.Join(group)
	net.Sched.RunUntil(4 * netsim.Second)
	if routers["rlow"].MFIB.Wildcard(group) != nil {
		t.Error("non-DR created (*,G) state")
	}
	if routers["rhigh"].MFIB.Wildcard(group) == nil {
		t.Error("DR did not create (*,G) state")
	}
}

// TestStateScalesWithMembership: sparse-mode state exists only on the path
// between members and the RP — routers off the tree hold nothing (§1.2).
func TestStateOnlyOnTree(t *testing.T) {
	// Line of 6 routers, receiver at 0, RP at 2; routers 3..5 are off-tree.
	g := topology.New(6)
	for i := 0; i < 5; i++ {
		g.AddEdge(i, i+1, 1)
	}
	sim := scenario.Build(g)
	receiver := sim.AddHost(0)
	sim.FinishUnicast(scenario.UseOracle)
	group := addr.GroupForIndex(0)
	rp := sim.RouterAddr(2)
	dep := sim.Deploy(scenario.SparseMode, scenario.WithCoreConfig(core.Config{RPMapping: map[addr.IP][]addr.IP{group: {rp}}})).(*scenario.PIMDeployment)
	sim.Run(2 * netsim.Second)
	receiver.Join(group)
	sim.Run(2 * netsim.Second)
	for i := 0; i <= 2; i++ {
		if dep.Routers[i].StateCount() == 0 {
			t.Errorf("on-tree router %d has no state", i)
		}
	}
	for i := 3; i <= 5; i++ {
		if n := dep.Routers[i].StateCount(); n != 0 {
			t.Errorf("off-tree router %d holds %d entries", i, n)
		}
	}
}

// TestDynamicRPDiscovery: only the RP router is configured with the group
// mapping; everyone else learns it from flooded RP-reports (§4) and the
// rendezvous still works end to end.
func TestDynamicRPDiscovery(t *testing.T) {
	g := topology.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	sim := scenario.Build(g)
	receiver := sim.AddHost(0)
	sender := sim.AddHost(3)
	sim.FinishUnicast(scenario.UseOracle)
	group := addr.GroupForIndex(0)
	rp := sim.RouterAddr(2)
	// Wire routers individually: only router 2 (the RP) knows the mapping.
	routers := make([]*core.Router, 4)
	for i, nd := range sim.Routers {
		cfg := core.Config{AdvertiseRPMapping: true}
		if i == 2 {
			cfg.RPMapping = map[addr.IP][]addr.IP{group: {rp}}
		}
		r := core.New(nd, cfg, sim.UnicastFor(i))
		q := newQuerier(nd, r)
		r.Start()
		q.Start()
		routers[i] = r
	}
	// Let the first RP-report flood.
	sim.Run(2 * netsim.Second)
	if got := routers[0].RPsFor(group); len(got) != 1 || got[0] != rp {
		t.Fatalf("router 0 learned RPs = %v, want [%v]", got, rp)
	}
	receiver.Join(group)
	sim.Run(2 * netsim.Second)
	if routers[0].MFIB.Wildcard(group) == nil {
		t.Fatal("receiver DR did not join via learned mapping")
	}
	for i := 0; i < 5; i++ {
		scenario.SendData(sender, group, 64)
		sim.Run(500 * netsim.Millisecond)
	}
	if receiver.Received[group] < 4 {
		t.Fatalf("delivered %d of 5 with dynamic RP discovery", receiver.Received[group])
	}
}

// TestLearnedRPMappingExpires: cached RP-report mappings age out when the
// RP stops advertising ("the mapping of G to RP addresses should be
// cached" — cached, not permanent).
func TestLearnedRPMappingExpires(t *testing.T) {
	g := topology.New(2)
	g.AddEdge(0, 1, 1)
	sim := scenario.Build(g)
	sim.FinishUnicast(scenario.UseOracle)
	group := addr.GroupForIndex(0)
	rp := sim.RouterAddr(1)
	var routers [2]*core.Router
	for i, nd := range sim.Routers {
		cfg := core.Config{AdvertiseRPMapping: true}
		if i == 1 {
			cfg.RPMapping = map[addr.IP][]addr.IP{group: {rp}}
		}
		r := core.New(nd, cfg, sim.UnicastFor(i))
		r.Start()
		routers[i] = r
	}
	sim.Run(2 * netsim.Second)
	if len(routers[0].RPsFor(group)) != 1 {
		t.Fatal("mapping not learned")
	}
	// Silence the RP's reports and run past the cache lifetime.
	sim.Net.SetLinkUp(sim.EdgeLinks[0], false)
	sim.Run(4 * core.DefaultRPReachInterval)
	if len(routers[0].RPsFor(group)) != 0 {
		t.Error("learned mapping survived the advertisement silence")
	}
}

// hostAlias keeps test struct fields compact.
type hostAlias = igmp.Host
