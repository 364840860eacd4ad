package pimdm_test

import (
	"testing"

	"pim/internal/addr"
	"pim/internal/igmp"
	"pim/internal/metrics"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/pimdm"
	"pim/internal/pimmsg"
	"pim/internal/scenario"
	"pim/internal/telemetry"
	"pim/internal/topology"
	"pim/internal/unicast"
)

func lineSim(t *testing.T, hold netsim.Time) (*scenario.Sim, *scenario.PIMDMDeployment, *igmp.Host, *igmp.Host) {
	t.Helper()
	g := topology.New(4)
	for i := 0; i < 3; i++ {
		g.AddEdge(i, i+1, 1)
	}
	sim := scenario.Build(g)
	receiver := sim.AddHost(0)
	sender := sim.AddHost(3)
	sim.FinishUnicast(scenario.UseOracle)
	dep := sim.Deploy(scenario.DenseMode, scenario.WithDenseConfig(pimdm.Config{PruneHoldTime: hold})).(*scenario.PIMDMDeployment)
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

func TestPruneQuietsNoMemberTree(t *testing.T) {
	sim, _, _, sender := lineSim(t, 600*netsim.Second)
	g := addr.GroupForIndex(0)
	scenario.SendData(sender, g, 64)
	sim.Run(2 * netsim.Second)
	flood := sim.Net.Stats.Totals.DataPackets
	scenario.SendData(sender, g, 64)
	sim.Run(2 * netsim.Second)
	if extra := sim.Net.Stats.Totals.DataPackets - flood; extra > 2 {
		t.Errorf("pruned tree still carried %d packets", extra)
	}
}

func TestGraftRestoresDelivery(t *testing.T) {
	sim, _, receiver, sender := lineSim(t, 600*netsim.Second)
	g := addr.GroupForIndex(0)
	scenario.SendData(sender, g, 64) // flood, then full prune
	sim.Run(2 * netsim.Second)
	receiver.Join(g) // graft chain back to the source
	sim.Run(2 * netsim.Second)
	scenario.SendData(sender, g, 64)
	sim.Run(2 * netsim.Second)
	if receiver.Received[g] == 0 {
		t.Fatal("graft did not restore delivery")
	}
}

// TestAssertElectsSingleForwarder: two parallel routers feed the same
// transit LAN; after the assert exchange only one forwards, so the receiver
// behind the LAN sees one copy per packet.
func TestAssertElectsSingleForwarder(t *testing.T) {
	// src LAN — A,B (parallel) — shared LAN — C — receiver LAN
	net := netsim.NewNetwork()
	srcNode := net.AddNode("src-host")
	aNode := net.AddNode("A")
	bNode := net.AddNode("B")
	cNode := net.AddNode("C")
	recvNode := net.AddNode("recv-host")

	srcIf := net.AddIface(srcNode, addr.V4(10, 100, 0, 1))
	aSrc := net.AddIface(aNode, addr.V4(10, 100, 0, 2))
	bSrc := net.AddIface(bNode, addr.V4(10, 100, 0, 3))
	net.ConnectLAN(netsim.Millisecond, srcIf, aSrc, bSrc)

	aMid := net.AddIface(aNode, addr.V4(10, 1, 0, 1))
	bMid := net.AddIface(bNode, addr.V4(10, 1, 0, 2))
	cMid := net.AddIface(cNode, addr.V4(10, 1, 0, 3))
	net.ConnectLAN(netsim.Millisecond, aMid, bMid, cMid)

	cRecv := net.AddIface(cNode, addr.V4(10, 100, 9, 254))
	recvIf := net.AddIface(recvNode, addr.V4(10, 100, 9, 1))
	net.Connect(cRecv, recvIf, netsim.Millisecond)

	oracle := unicast.NewOracle(net)
	var routers []*pimdm.Router
	for _, nd := range []*netsim.Node{aNode, bNode, cNode} {
		r := pimdm.New(nd, pimdm.Config{PruneHoldTime: 600 * netsim.Second}, oracle.RouterFor(nd))
		q := igmp.NewQuerier(nd)
		q.OnJoin = func(ifc *netsim.Iface, g addr.IP) { r.LocalJoin(ifc, g) }
		q.OnLeave = func(ifc *netsim.Iface, g addr.IP) { r.LocalLeave(ifc, g) }
		r.Start()
		q.Start()
		routers = append(routers, r)
	}
	receiver := igmp.NewHost(recvNode, recvIf)
	net.Sched.RunUntil(2 * netsim.Second)
	g := addr.GroupForIndex(0)
	receiver.Join(g)
	net.Sched.RunUntil(4 * netsim.Second)

	send := func() {
		pkt := packet.New(srcIf.Addr, g, packet.ProtoUDP, make([]byte, 64))
		srcNode.Send(srcIf, pkt, 0)
	}
	// First packet: both A and B flood onto the shared LAN; asserts fire.
	send()
	net.Sched.RunUntil(net.Sched.Now() + 2*netsim.Second)
	before := receiver.Received[g]
	// Subsequent packets: exactly one forwarder remains.
	for i := 0; i < 5; i++ {
		send()
		net.Sched.RunUntil(net.Sched.Now() + netsim.Second)
	}
	got := receiver.Received[g] - before
	if got != 5 {
		t.Errorf("receiver got %d copies of 5 packets after assert election", got)
	}
	asserts := routers[0].Metrics.Get(metrics.CtrlAssert) + routers[1].Metrics.Get(metrics.CtrlAssert)
	if asserts == 0 {
		t.Error("no asserts were exchanged")
	}
}

// TestProtocolIndependentDense runs dense mode over the distance-vector
// substrate, the protocol-independence property that distinguishes PIM-DM
// from DVMRP.
func TestProtocolIndependentDense(t *testing.T) {
	g := topology.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	sim := scenario.Build(g)
	receiver := sim.AddHost(0)
	sender := sim.AddHost(2)
	sim.FinishUnicast(scenario.UseDV)
	sim.Run(sim.ConvergenceTime())
	sim.Deploy(scenario.DenseMode)
	sim.Run(2 * netsim.Second)
	grp := addr.GroupForIndex(0)
	receiver.Join(grp)
	sim.Run(2 * netsim.Second)
	for i := 0; i < 4; i++ {
		scenario.SendData(sender, grp, 64)
		sim.Run(500 * netsim.Millisecond)
	}
	if receiver.Received[grp] < 3 {
		t.Fatalf("dense mode over DV delivered %d packets", receiver.Received[grp])
	}
}

// TestLANPruneOverride: on a transit LAN, one downstream router's prune is
// overridden by another that still needs the traffic (§3.7 semantics shared
// with sparse mode).
func TestLANPruneOverride(t *testing.T) {
	// src — U — transit LAN — {D1 (no members), D2 (member)}
	net := netsim.NewNetwork()
	srcHost := net.AddNode("src")
	uNode := net.AddNode("u")
	d1Node := net.AddNode("d1")
	d2Node := net.AddNode("d2")
	memHost := net.AddNode("mem")

	srcIf := net.AddIface(srcHost, addr.V4(10, 100, 0, 1))
	uSrc := net.AddIface(uNode, addr.V4(10, 100, 0, 254))
	net.Connect(srcIf, uSrc, netsim.Millisecond)

	uLAN := net.AddIface(uNode, addr.V4(10, 1, 0, 3))
	d1LAN := net.AddIface(d1Node, addr.V4(10, 1, 0, 1))
	d2LAN := net.AddIface(d2Node, addr.V4(10, 1, 0, 2))
	net.ConnectLAN(netsim.Millisecond, uLAN, d1LAN, d2LAN)

	// D1 has a member-less stub; D2 has a member.
	d1Stub := net.AddIface(d1Node, addr.V4(10, 100, 1, 254))
	s1 := net.AddIface(net.AddNode("h1"), addr.V4(10, 100, 1, 1))
	net.Connect(d1Stub, s1, netsim.Millisecond)
	d2Stub := net.AddIface(d2Node, addr.V4(10, 100, 2, 254))
	m2 := net.AddIface(memHost, addr.V4(10, 100, 2, 1))
	net.Connect(d2Stub, m2, netsim.Millisecond)

	oracle := unicast.NewOracle(net)
	group := addr.GroupForIndex(0)
	for _, nd := range []*netsim.Node{uNode, d1Node, d2Node} {
		r := pimdm.New(nd, pimdm.Config{PruneHoldTime: 600 * netsim.Second}, oracle.RouterFor(nd))
		q := igmp.NewQuerier(nd)
		q.OnJoin = func(ifc *netsim.Iface, g addr.IP) { r.LocalJoin(ifc, g) }
		q.OnLeave = func(ifc *netsim.Iface, g addr.IP) { r.LocalLeave(ifc, g) }
		r.Start()
		q.Start()
	}
	member := igmp.NewHost(memHost, m2)
	net.Sched.RunUntil(2 * netsim.Second)
	member.Join(group)
	net.Sched.RunUntil(4 * netsim.Second)

	send := func() {
		pkt := packet.New(srcIf.Addr, group, packet.ProtoUDP, make([]byte, 64))
		srcHost.Send(srcIf, pkt, 0)
	}
	// First packet floods the LAN; D1 (no members, leaf stub) prunes; D2
	// must override so U keeps forwarding onto the LAN.
	send()
	net.Sched.RunUntil(net.Sched.Now() + 10*netsim.Second)
	before := member.Received[group]
	for i := 0; i < 5; i++ {
		send()
		net.Sched.RunUntil(net.Sched.Now() + netsim.Second)
	}
	if got := member.Received[group] - before; got != 5 {
		t.Errorf("member got %d of 5 after prune/override on the LAN", got)
	}
}

// TestLANArrivalDoesNotPrune: on the assert test's topology, A and B each
// hear the other's copy on the shared LAN, an RPF failure on an interface
// they forward onto. On a LAN that is the assert's cue, never the
// point-to-point non-RPF prune: no prune leaves A or B onto the shared LAN.
func TestLANArrivalDoesNotPrune(t *testing.T) {
	net := netsim.NewNetwork()
	srcNode := net.AddNode("src-host")
	aNode := net.AddNode("A")
	bNode := net.AddNode("B")
	cNode := net.AddNode("C")
	recvNode := net.AddNode("recv-host")

	srcIf := net.AddIface(srcNode, addr.V4(10, 100, 0, 1))
	aSrc := net.AddIface(aNode, addr.V4(10, 100, 0, 2))
	bSrc := net.AddIface(bNode, addr.V4(10, 100, 0, 3))
	net.ConnectLAN(netsim.Millisecond, srcIf, aSrc, bSrc)

	aMid := net.AddIface(aNode, addr.V4(10, 1, 0, 1))
	bMid := net.AddIface(bNode, addr.V4(10, 1, 0, 2))
	cMid := net.AddIface(cNode, addr.V4(10, 1, 0, 3))
	net.ConnectLAN(netsim.Millisecond, aMid, bMid, cMid)

	cRecv := net.AddIface(cNode, addr.V4(10, 100, 9, 254))
	recvIf := net.AddIface(recvNode, addr.V4(10, 100, 9, 1))
	net.Connect(cRecv, recvIf, netsim.Millisecond)

	bus := telemetry.NewBus()
	midPrunes, rpfDrops := 0, 0
	bus.Subscribe(func(ev telemetry.Event) {
		onMid := (ev.Router == aNode.ID && ev.Iface == aMid.Index) || (ev.Router == bNode.ID && ev.Iface == bMid.Index)
		switch {
		case ev.Kind == telemetry.PruneSend && onMid:
			midPrunes++
		case ev.Kind == telemetry.RPFDrop && onMid:
			rpfDrops++
		}
	})
	oracle := unicast.NewOracle(net)
	for _, nd := range []*netsim.Node{aNode, bNode, cNode} {
		r := pimdm.New(nd, pimdm.Config{PruneHoldTime: 600 * netsim.Second, Telemetry: bus}, oracle.RouterFor(nd))
		q := igmp.NewQuerier(nd)
		q.OnJoin = func(ifc *netsim.Iface, g addr.IP) { r.LocalJoin(ifc, g) }
		q.OnLeave = func(ifc *netsim.Iface, g addr.IP) { r.LocalLeave(ifc, g) }
		r.Start()
		q.Start()
	}
	receiver := igmp.NewHost(recvNode, recvIf)
	net.Sched.RunUntil(2 * netsim.Second)
	g := addr.GroupForIndex(0)
	receiver.Join(g)
	net.Sched.RunUntil(4 * netsim.Second)
	srcNode.Send(srcIf, packet.New(srcIf.Addr, g, packet.ProtoUDP, make([]byte, 64)), 0)
	net.Sched.RunUntil(net.Sched.Now() + 2*netsim.Second)
	if rpfDrops == 0 {
		t.Fatal("neither parallel forwarder heard the other's copy on the LAN")
	}
	if midPrunes != 0 {
		t.Errorf("%d prunes sent onto the shared LAN after %d RPF failures there", midPrunes, rpfDrops)
	}
}

// TestPruneHonoursCarriedHold: a prune holds a branch for the hold time the
// message carries, not the receiver's own configured hold.
func TestPruneHonoursCarriedHold(t *testing.T) {
	sim, dep, receiver, sender := lineSim(t, 600*netsim.Second)
	g := addr.GroupForIndex(0)
	receiver.Join(g)
	sim.Run(2 * netsim.Second)
	scenario.SendData(sender, g, 64)
	sim.Run(2 * netsim.Second)
	s := sender.Iface.Addr
	// Router 1 accepts the flow from router 2: prune router 2's branch
	// toward it in router 1's name, for 30 s.
	var in *netsim.Iface
	for _, ifc := range dep.Routers[1].MFIB.SG(s, g).IIF.Link.Ifaces {
		if ifc.Node == sim.Routers[2] {
			in = ifc
		}
	}
	m := pimmsg.JoinPrune{
		UpstreamNeighbor: in.Addr,
		HoldTime:         30,
		Groups:           []pimmsg.GroupRecord{{Group: g, Prunes: []pimmsg.Addr{{Addr: s}}}},
	}
	body := m.MarshalTo(pimmsg.AppendEnvelope(nil, pimmsg.TypeJoinPrune))
	at := sim.Net.Sched.Now()
	dep.Routers[2].HandlePIMPacket(in, packet.New(addr.V4(1, 2, 3, 4), addr.AllRouters, packet.ProtoPIM, body))
	e := dep.Routers[2].MFIB.SG(s, g)
	o := e.OIF(in.Index)
	if o == nil || !o.Pruned || o.PruneDeadline != at+30*netsim.Second {
		t.Fatalf("branch after a 30 s prune: %+v, want pruned until %v", o, at+30*netsim.Second)
	}
	if e.HasOIF(in, at+30*netsim.Second-1) || !e.HasOIF(in, at+30*netsim.Second) {
		t.Error("the branch does not grow back exactly 30 s after the prune")
	}
}

// TestLANPruneKeepsCut: a LAN prune addressed to a branch that is already
// cut must not start the §3.7 override window on it. The pending prune and
// the cut share the oif's deadline, so starting one would overwrite the
// other and put the branch back on the air for the window.
func TestLANPruneKeepsCut(t *testing.T) {
	// src — U — LAN {D1, D2}
	net := netsim.NewNetwork()
	srcHost := net.AddNode("src")
	uNode := net.AddNode("u")
	srcIf := net.AddIface(srcHost, addr.V4(10, 100, 0, 1))
	uSrc := net.AddIface(uNode, addr.V4(10, 100, 0, 254))
	net.Connect(srcIf, uSrc, netsim.Millisecond)
	uLAN := net.AddIface(uNode, addr.V4(10, 1, 0, 3))
	ifs := []*netsim.Iface{uLAN}
	for i, name := range []string{"d1", "d2"} {
		ifs = append(ifs, net.AddIface(net.AddNode(name), addr.V4(10, 1, 0, byte(i+1))))
	}
	net.ConnectLAN(netsim.Millisecond, ifs...)

	oracle := unicast.NewOracle(net)
	var u *pimdm.Router
	for _, nd := range []*netsim.Node{uNode, ifs[1].Node, ifs[2].Node} {
		r := pimdm.New(nd, pimdm.Config{PruneHoldTime: 600 * netsim.Second}, oracle.RouterFor(nd))
		r.Start()
		if nd == uNode {
			u = r
		}
	}
	net.Sched.RunUntil(2 * netsim.Second)
	g := addr.GroupForIndex(0)
	srcHost.Send(srcIf, packet.New(srcIf.Addr, g, packet.ProtoUDP, make([]byte, 64)), 0)
	net.Sched.RunUntil(3 * netsim.Second)
	e := u.MFIB.SG(srcIf.Addr, g)
	if e == nil || e.OIF(uLAN.Index) == nil {
		t.Fatal("the first packet did not install the LAN branch")
	}
	u.Prune(e, uLAN, 600*netsim.Second)
	deadline := e.OIF(uLAN.Index).PruneDeadline

	m := pimmsg.JoinPrune{
		UpstreamNeighbor: uLAN.Addr,
		HoldTime:         30,
		Groups:           []pimmsg.GroupRecord{{Group: g, Prunes: []pimmsg.Addr{{Addr: srcIf.Addr}}}},
	}
	body := m.MarshalTo(pimmsg.AppendEnvelope(nil, pimmsg.TypeJoinPrune))
	u.HandlePIMPacket(uLAN, packet.New(ifs[1].Addr, addr.AllRouters, packet.ProtoPIM, body))
	if o := e.OIF(uLAN.Index); !o.Pruned || o.PrunePending || o.PruneDeadline != deadline || o.Live(net.Sched.Now()) {
		t.Errorf("a LAN prune reopened the cut branch: %+v", *o)
	}
}
