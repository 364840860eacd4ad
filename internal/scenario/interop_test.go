package scenario

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"pim/internal/addr"
	"pim/internal/border"
	"pim/internal/metrics"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/pimdm"
	"pim/internal/pimmsg"
	"pim/internal/telemetry"
	"pim/internal/topology"
)

// TestMixedDeploymentRoles: a line internet with a dense tail — sparse 0-1,
// border 2, dense 3-4. Members on both ends exchange traffic.
func TestMixedDeploymentRoles(t *testing.T) {
	g := topology.New(5)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1, 1)
	}
	sim := Build(g)
	sparseHost := sim.AddHost(0)
	denseHost := sim.AddHost(4)
	sim.FinishUnicast(UseOracle)
	group := addr.GroupForIndex(0)
	rp := sim.RouterAddr(0)
	dep := sim.Deploy(SparseMode,
		WithRPMapping(map[addr.IP][]addr.IP{group: {rp}}),
		WithDenseConfig(pimdm.Config{PruneHoldTime: 600 * netsim.Second}),
		WithDenseRouters(3, 4),
	).(*MixedDeployment)
	// Role assignment: 0,1 sparse; 2 border; 3,4 dense.
	for i, want := range []string{"*core.Router", "*core.Router", "*border.BorderRouter", "*pimdm.Router", "*pimdm.Router"} {
		if got := fmt.Sprintf("%T", dep.Routers[i]); got != want {
			t.Errorf("router %d runs %s, want %s", i, got, want)
		}
	}
	sim.Run(2 * netsim.Second)
	sparseHost.Join(group)
	denseHost.Join(group)
	sim.Run(3 * netsim.Second)

	// Dense-side member pulls sparse-side data.
	for i := 0; i < 5; i++ {
		SendData(sparseHost, group, 64)
		sim.Run(netsim.Second)
	}
	if got := denseHost.Received[group]; got < 4 {
		t.Fatalf("dense member got %d of 5 sparse packets", got)
	}
	// Sparse-side member hears the dense-region source.
	for i := 0; i < 5; i++ {
		SendData(denseHost, group, 64)
		sim.Run(netsim.Second)
	}
	if got := sparseHost.Received[group]; got < 4 {
		t.Fatalf("sparse member got %d of 5 dense packets", got)
	}
	if dep.TotalState() == 0 || dep.StateBytes() == 0 {
		t.Errorf("no state anywhere: %d entries, %d bytes", dep.TotalState(), dep.StateBytes())
	}
	// The control total is the union of the two PIM rows.
	want := []metrics.ID{metrics.CtrlAssert, metrics.CtrlGraft, metrics.CtrlJoinPrune, metrics.CtrlPrune, metrics.CtrlRegister, metrics.CtrlRPReach}
	if !slices.Equal(dep.ctrl, want) {
		t.Errorf("control row %v, want %v", dep.ctrl, want)
	}
	if dep.Counter(metrics.CtrlJoinPrune) == 0 || dep.Counter(metrics.CtrlRegister) == 0 {
		t.Error("the sparse side counted no joins or registers")
	}
}

// TestNoDenseRoutersIsPIMDeployment: an empty dense-router set is plain
// sparse mode, deployed as a PIMDeployment.
func TestNoDenseRoutersIsPIMDeployment(t *testing.T) {
	g := topology.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	sim := Build(g)
	h := sim.AddHost(0)
	sim.FinishUnicast(UseOracle)
	group := addr.GroupForIndex(0)
	dep, ok := sim.Deploy(SparseMode,
		WithRPMapping(map[addr.IP][]addr.IP{group: {sim.RouterAddr(2)}}),
		WithDenseRouters(),
	).(*PIMDeployment)
	if !ok {
		t.Fatal("an all-sparse deployment is not a *PIMDeployment")
	}
	sim.Run(2 * netsim.Second)
	h.Join(group)
	sim.Run(2 * netsim.Second)
	if dep.Routers[1].MFIB.Wildcard(group) == nil {
		t.Error("tree did not form")
	}
}

// countMemberAds taps Network.Trace and returns a reader of how many PIM
// member-existence messages (type 8) have been delivered so far.
func countMemberAds(net *netsim.Network) func() int {
	n := 0
	net.Trace = func(ev netsim.TraceEvent) {
		if ev.Pkt.Protocol == packet.ProtoPIM && len(ev.Pkt.Payload) >= 2 && ev.Pkt.Payload[1] == pimmsg.TypeMemberAd {
			n++
		}
	}
	return func() int { return n }
}

// TestPureDenseRegionSendsNoMemberAds: member existence is advertised only to
// a border that solicits it (§4), so a deployment with no border carries not
// one such message — through joins, leaves, data, a router crash and restart
// and five query intervals.
func TestPureDenseRegionSendsNoMemberAds(t *testing.T) {
	g := topology.New(6)
	for i := 0; i < 5; i++ {
		g.AddEdge(i, i+1, 1)
	}
	g.AddEdge(1, 4, 1)
	sim := Build(g)
	sender := sim.AddHost(0)
	near, far := sim.AddHost(3), sim.AddHost(5)
	sim.FinishUnicast(UseOracle)
	memberAds := countMemberAds(sim.Net)
	dep := sim.Deploy(DenseMode)
	group, other := addr.GroupForIndex(0), addr.GroupForIndex(1)

	sim.Run(2 * netsim.Second)
	near.Join(group)
	far.Join(group)
	far.Join(other)
	sim.Run(pimdm.DefaultQueryInterval)
	for i := 0; i < 5; i++ {
		SendData(sender, group, 64)
		sim.Run(netsim.Second)
	}
	if far.Received[group] == 0 || near.Received[group] == 0 {
		t.Fatalf("flood-and-prune did not deliver: near %d, far %d", near.Received[group], far.Received[group])
	}
	near.Leave(group)
	dep.Crash(4)
	sim.Run(pimdm.DefaultQueryInterval)
	dep.Restart(4)
	far.Leave(other)
	sim.Run(3 * pimdm.DefaultQueryInterval)
	if n := memberAds(); n != 0 {
		t.Fatalf("a region with no border carried %d member-existence messages, want 0", n)
	}
	for i, r := range dep.(*PIMDMDeployment).Routers {
		if n := r.Metrics.Get(metrics.CtrlMemberAd); n != 0 {
			t.Errorf("router %d counted %d member-existence sends", i, n)
		}
	}
}

// TestBorderWithTwoDenseIfacesIsDeterministic: a border joins and leaves the
// sparse tree once per region-facing interface, and the order it walks them
// in is the order of the outgoing list it builds, which data forwarding (and
// every loss draw behind it) follows. Twenty runs of one script must publish
// one telemetry stream.
func TestBorderWithTwoDenseIfacesIsDeterministic(t *testing.T) {
	run := func() (uint64, int) {
		// sparse 0 — 1 (border) with dense neighbours 2 and 3, both feeding
		// dense 4.
		g := topology.New(5)
		g.AddEdge(0, 1, 1)
		g.AddEdge(1, 2, 1)
		g.AddEdge(1, 3, 1)
		g.AddEdge(2, 4, 1)
		g.AddEdge(3, 4, 1)
		sim := Build(g)
		sparseHost := sim.AddHost(0)
		member2, member3 := sim.AddHost(2), sim.AddHost(3)
		sim.FinishUnicast(UseOracle)
		bus := telemetry.NewBus()
		h := fnv.New64a()
		events, adSends := 0, int64(0)
		bus.Subscribe(func(ev telemetry.Event) {
			fmt.Fprintf(h, "%d %d %d %d %d %v %v %d\n", ev.At, ev.Kind, ev.Router, ev.Iface, ev.Epoch, ev.Source, ev.Group, ev.Value)
			events++
			if ev.Kind == telemetry.MemberAdSend {
				adSends++
			}
		})
		group := addr.GroupForIndex(0)
		dep := sim.Deploy(SparseMode,
			WithRPMapping(map[addr.IP][]addr.IP{group: {sim.RouterAddr(0)}}),
			WithTelemetry(bus),
			WithDenseRouters(2, 3, 4),
		)
		if b, ok := dep.(*MixedDeployment).Routers[1].(*border.BorderRouter); !ok || !b.IsDenseIface(sim.Routers[1].Ifaces[1]) || !b.IsDenseIface(sim.Routers[1].Ifaces[2]) {
			t.Fatal("router 1 should be a border with two dense interfaces")
		}
		sim.Run(2 * netsim.Second)
		member2.Join(group)
		member3.Join(group)
		sim.Run(3 * netsim.Second)
		for i := 0; i < 5; i++ {
			SendData(sparseHost, group, 64)
			sim.Run(netsim.Second)
		}
		if member2.Received[group] < 4 || member3.Received[group] < 4 {
			t.Fatalf("members behind the two interfaces got %d and %d of 5", member2.Received[group], member3.Received[group])
		}
		member2.Leave(group)
		member3.Leave(group)
		sim.Run(5 * netsim.Second)
		// Every member-existence send is both counted and published.
		if counted := dep.Counter(metrics.CtrlMemberAd); adSends == 0 || adSends != counted {
			t.Fatalf("%d MemberAdSend events published, %d sends counted", adSends, counted)
		}
		return h.Sum64(), events
	}
	want, events := run()
	if events == 0 {
		t.Fatal("no telemetry published")
	}
	for i := 1; i < 20; i++ {
		if got, _ := run(); got != want {
			t.Fatalf("run %d published stream %016x, run 0 published %016x", i, got, want)
		}
	}
}

// TestDenseFacingIfacesListsALANOnce: an interface onto a LAN shared with
// several dense routers is one region-facing interface, not one per peer, and
// the list comes back in interface-index order.
func TestDenseFacingIfacesListsALANOnce(t *testing.T) {
	net := netsim.NewNetwork()
	border := net.AddNode("border")
	d1, d2, d3 := net.AddNode("d1"), net.AddNode("d2"), net.AddNode("d3")
	sparse := net.AddNode("sparse")
	toSparse := net.AddIface(border, addr.V4(10, 0, 0, 1))
	net.Connect(toSparse, net.AddIface(sparse, addr.V4(10, 0, 0, 2)), netsim.Millisecond)
	lan := net.AddIface(border, addr.V4(10, 0, 1, 1))
	net.ConnectLAN(netsim.Millisecond, lan, net.AddIface(d1, addr.V4(10, 0, 1, 2)), net.AddIface(d2, addr.V4(10, 0, 1, 3)))
	p2p := net.AddIface(border, addr.V4(10, 0, 2, 1))
	net.Connect(p2p, net.AddIface(d3, addr.V4(10, 0, 2, 2)), netsim.Millisecond)
	dense := map[*netsim.Node]bool{d1: true, d2: true, d3: true}

	got := denseFacingIfaces(border, dense)
	if len(got) != 2 || got[0] != lan || got[1] != p2p {
		t.Errorf("border: got %d interfaces %v, want the LAN and the point-to-point link once each", len(got), got)
	}
	if got := denseFacingIfaces(sparse, dense); got != nil {
		t.Errorf("plain sparse router: got %v, want none", got)
	}
}
