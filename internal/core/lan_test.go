package core_test

import (
	"testing"

	"pim/internal/addr"
	"pim/internal/core"
	"pim/internal/igmp"
	"pim/internal/metrics"
	"pim/internal/netsim"
	"pim/internal/unicast"
)

// unicastOracle is a tiny helper shared by the hand-built LAN tests.
func unicastOracle(net *netsim.Network) *unicast.Oracle { return unicast.NewOracle(net) }

// lanFixture builds the §3.7 scenario: an upstream router U feeds a transit
// LAN with two downstream routers D1 and D2, each serving its own host LAN;
// the RP sits behind U.
//
//	rp --- U
//	       | (transit LAN)
//	  +----+----+
//	  D1        D2
//	  |          |
//	hostLAN1   hostLAN2
type lanFixture struct {
	net        *netsim.Network
	u, d1, d2  *core.Router
	rp         *core.Router
	h1, h2     *igmp.Host
	transitLAN *netsim.Link
	uLANIface  *netsim.Iface
	d1LANIface *netsim.Iface
	d2LANIface *netsim.Iface
	group      addr.IP
}

func buildLANFixture(t *testing.T) *lanFixture {
	t.Helper()
	net := netsim.NewNetwork()
	rpNode := net.AddNode("rp")
	uNode := net.AddNode("u")
	d1Node := net.AddNode("d1")
	d2Node := net.AddNode("d2")
	h1Node := net.AddNode("h1")
	h2Node := net.AddNode("h2")

	// RP—U point-to-point.
	rpIf := net.AddIface(rpNode, addr.V4(10, 200, 0, 2))
	uUp := net.AddIface(uNode, addr.V4(10, 200, 0, 1))
	net.Connect(uUp, rpIf, netsim.Millisecond)

	// Transit LAN: U, D1, D2.
	uLAN := net.AddIface(uNode, addr.V4(10, 1, 0, 3))
	d1LAN := net.AddIface(d1Node, addr.V4(10, 1, 0, 1))
	d2LAN := net.AddIface(d2Node, addr.V4(10, 1, 0, 2))
	transit := net.ConnectLAN(netsim.Millisecond, uLAN, d1LAN, d2LAN)

	// Host LANs.
	d1Host := net.AddIface(d1Node, addr.V4(10, 100, 1, 254))
	h1If := net.AddIface(h1Node, addr.V4(10, 100, 1, 1))
	net.Connect(d1Host, h1If, netsim.Millisecond)
	d2Host := net.AddIface(d2Node, addr.V4(10, 100, 2, 254))
	h2If := net.AddIface(h2Node, addr.V4(10, 100, 2, 1))
	net.Connect(d2Host, h2If, netsim.Millisecond)

	oracle := unicastOracle(net)
	group := addr.GroupForIndex(0)
	cfg := core.Config{RPMapping: map[addr.IP][]addr.IP{group: {rpIf.Addr}}}
	f := &lanFixture{
		net: net, transitLAN: transit, group: group,
		uLANIface: uLAN, d1LANIface: d1LAN, d2LANIface: d2LAN,
	}
	attach := func(nd *netsim.Node) *core.Router {
		r := core.New(nd, cfg, oracle.RouterFor(nd))
		q := igmp.NewQuerier(nd)
		q.OnJoin = func(ifc *netsim.Iface, g addr.IP) { r.LocalJoin(ifc, g) }
		q.OnLeave = func(ifc *netsim.Iface, g addr.IP) { r.LocalLeave(ifc, g) }
		r.Start()
		q.Start()
		return r
	}
	f.rp = attach(rpNode)
	f.u = attach(uNode)
	f.d1 = attach(d1Node)
	f.d2 = attach(d2Node)
	f.h1 = igmp.NewHost(h1Node, h1If)
	f.h2 = igmp.NewHost(h2Node, h2If)
	net.Sched.RunUntil(2 * netsim.Second)
	return f
}

// TestLANPruneOverride is §3.7's core behaviour: when D1 prunes the shared
// tree on the LAN, D2 (which still has members) overrides with a join and U
// keeps forwarding onto the LAN.
func TestLANPruneOverride(t *testing.T) {
	f := buildLANFixture(t)
	f.h1.Join(f.group)
	f.h2.Join(f.group)
	f.net.Sched.RunUntil(f.net.Sched.Now() + 2*netsim.Second)

	wcU := f.u.MFIB.Wildcard(f.group)
	if wcU == nil || !wcU.HasOIF(f.uLANIface, f.net.Sched.Now()) {
		t.Fatal("U not forwarding onto the transit LAN")
	}
	// D1's member leaves: D1 multicasts a prune onto the LAN.
	f.h1.Leave(f.group)
	// Run past the override window.
	f.net.Sched.RunUntil(f.net.Sched.Now() + 3*core.DefaultPruneOverrideDelay)
	if wcU := f.u.MFIB.Wildcard(f.group); wcU == nil ||
		!wcU.HasOIF(f.uLANIface, f.net.Sched.Now()) {
		t.Fatal("D2's override join failed: U pruned the LAN")
	}
}

// TestLANPruneFinalizesWithoutOverride: when the last downstream member
// leaves, no override arrives and U stops forwarding after the window.
func TestLANPruneTakesEffectWhenLastLeaves(t *testing.T) {
	f := buildLANFixture(t)
	f.h1.Join(f.group)
	f.net.Sched.RunUntil(f.net.Sched.Now() + 2*netsim.Second)
	if wcU := f.u.MFIB.Wildcard(f.group); wcU == nil ||
		!wcU.HasOIF(f.uLANIface, f.net.Sched.Now()) {
		t.Fatal("tree did not form")
	}
	f.h1.Leave(f.group)
	f.net.Sched.RunUntil(f.net.Sched.Now() + 3*core.DefaultPruneOverrideDelay)
	wcU := f.u.MFIB.Wildcard(f.group)
	if wcU != nil && wcU.HasOIF(f.uLANIface, f.net.Sched.Now()) {
		t.Error("U still forwards onto the LAN after unopposed prune")
	}
}

// TestLANJoinSuppression: D1 and D2 both hold (*,G) with the same upstream;
// overhearing each other's periodic joins must suppress duplicates, so the
// LAN carries roughly one join per refresh period, not two.
func TestLANJoinSuppression(t *testing.T) {
	f := buildLANFixture(t)
	f.h1.Join(f.group)
	f.h2.Join(f.group)
	f.net.Sched.RunUntil(f.net.Sched.Now() + 2*netsim.Second)

	joinsBefore := f.d1.Metrics.Get(metrics.CtrlJoinPrune) + f.d2.Metrics.Get(metrics.CtrlJoinPrune)
	// Run five refresh periods.
	f.net.Sched.RunUntil(f.net.Sched.Now() + 5*core.DefaultJoinPruneInterval)
	joins := f.d1.Metrics.Get(metrics.CtrlJoinPrune) + f.d2.Metrics.Get(metrics.CtrlJoinPrune) - joinsBefore
	// Without suppression both D routers refresh every period (10 total);
	// with suppression one of them stays quiet most periods.
	if joins > 7 {
		t.Errorf("join suppression ineffective: %d joins in 5 periods", joins)
	}
	if joins == 0 {
		t.Error("no refreshes at all")
	}
}

// newQuerier wires a querier to a router (shared by hand-built tests).
func newQuerier(nd *netsim.Node, r *core.Router) *igmp.Querier {
	q := igmp.NewQuerier(nd)
	q.OnJoin = func(ifc *netsim.Iface, g addr.IP) { r.LocalJoin(ifc, g) }
	q.OnLeave = func(ifc *netsim.Iface, g addr.IP) { r.LocalLeave(ifc, g) }
	q.OnRPMap = func(g addr.IP, rps []addr.IP) { r.LearnRPMap(g, rps) }
	return q
}
