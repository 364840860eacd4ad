package pimdm

import (
	"fmt"
	"math/rand"
	"testing"

	"pim/internal/addr"
	"pim/internal/metrics"
	"pim/internal/netsim"
	"pim/internal/topology"
	"pim/internal/unicast"
)

// TestQueryRefreshZeroAlloc pins the dense-mode warm periodic-query send
// path at zero heap allocations per cycle (see the core engine's twin for
// the warm-up rationale).
func TestQueryRefreshZeroAlloc(t *testing.T) {
	net := netsim.NewNetwork()
	na := net.AddNode("a")
	nb := net.AddNode("b")
	ia := net.AddIface(na, addr.V4(10, 0, 0, 1))
	ib := net.AddIface(nb, addr.V4(10, 0, 0, 2))
	net.Connect(ia, ib, netsim.Millisecond)
	oracle := unicast.NewOracle(net)

	ra := New(na, Config{}, oracle.RouterFor(na))
	rb := New(nb, Config{}, oracle.RouterFor(nb))
	ra.Start()
	rb.Start()
	net.Sched.RunUntil(2 * netsim.Second)

	cycle := func() {
		ra.sendQueries()
		rb.sendQueries()
		net.Sched.RunUntil(net.Sched.Now() + 10*netsim.Millisecond)
	}
	for i := 0; i < 1500; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("warm query refresh cycle: %.2f allocs, want 0", allocs)
	}
}

// adRegion builds one router per node of g, started and past their first
// query exchange. mk builds each router from its node and unicast view.
func adRegion(g *topology.Graph, mk func(i int, nd *netsim.Node, uni unicast.Router) *Router) (*netsim.Network, []*Router) {
	net := netsim.NewNetwork()
	nodes := make([]*netsim.Node, g.N())
	for i := range nodes {
		nodes[i] = net.AddNode(fmt.Sprint("r", i))
	}
	for i, e := range g.Edges() {
		net.Connect(net.AddIface(nodes[e.A], addr.V4(10, byte(i>>8), byte(i), 1)),
			net.AddIface(nodes[e.B], addr.V4(10, byte(i>>8), byte(i), 2)), netsim.Millisecond)
	}
	oracle := unicast.NewOracle(net)
	routers := make([]*Router, len(nodes))
	for i, nd := range nodes {
		routers[i] = mk(i, nd, oracle.RouterFor(nd))
		routers[i].Start()
	}
	net.Sched.RunUntil(2 * netsim.Second)
	return net, routers
}

func line(n int) *topology.Graph {
	g := topology.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	return g
}

// TestMemberAdRelayZeroAlloc pins the path every router of a solicited region
// runs for every advertisement of every other router: decode, duplicate
// check, remember, re-encode, send on. The advertiser's own warm origination
// is inside the cycle too. A relay keeps sequence and time per origin and
// nothing else — no group lists.
func TestMemberAdRelayZeroAlloc(t *testing.T) {
	net, rs := adRegion(line(3), func(_ int, nd *netsim.Node, uni unicast.Router) *Router {
		return New(nd, Config{}, uni)
	})
	member, relay, sink := rs[0], rs[1], rs[2]
	for i := 0; i < 4; i++ {
		member.Local.Add(0, addr.GroupForIndex(i))
	}
	cycle := func() {
		// Stand in for a border beyond the sink: keep the solicitation live.
		member.solicitors[addr.V4(10, 9, 9, 9)] = adState{seq: 1, seen: member.Now()}
		member.advertise(false)
		net.Sched.RunUntil(net.Sched.Now() + 10*netsim.Millisecond)
	}
	for i := 0; i < 1500; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("warm advertisement origination + relay: %.2f allocs, want 0", allocs)
	}
	origin := member.Node.Addr()
	for name, r := range map[string]*Router{"relay": relay, "sink": sink} {
		st, ok := r.advertisers[origin]
		if !ok || st.seq != member.adSeq {
			t.Fatalf("%s did not follow the floods: %+v, origin at seq %d", name, st, member.adSeq)
		}
		if st.groups != nil || len(r.regionPresent) != 0 || r.RegionHasMembers(addr.GroupForIndex(0)) {
			t.Errorf("%s is no consumer but cached what it relayed: %+v, present %v", name, st, r.regionPresent)
		}
	}
}

// TestMemberAdConsumerZeroAlloc pins the border's side of a steady region: a
// refresh that changes nothing is cached into the origin's reused slice and
// merged into the reused presence set without allocating, and so is the
// consumer's own periodic solicitation.
func TestMemberAdConsumerZeroAlloc(t *testing.T) {
	toggles := 0
	net, rs := adRegion(line(3), func(i int, nd *netsim.Node, uni unicast.Router) *Router {
		if i == 1 {
			return NewConsumer(nd, Config{}, uni, func(addr.IP, bool) { toggles++ })
		}
		return New(nd, Config{}, uni)
	})
	left, consumer, right := rs[0], rs[1], rs[2]
	for i := 0; i < 4; i++ {
		left.LocalJoin(left.Node.Ifaces[0], addr.GroupForIndex(i))
		right.LocalJoin(right.Node.Ifaces[0], addr.GroupForIndex(i+2))
	}
	cycle := func() {
		consumer.solicit()
		left.advertise(false)
		right.advertise(false)
		net.Sched.RunUntil(net.Sched.Now() + 10*netsim.Millisecond)
	}
	for i := 0; i < 1500; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("warm solicitation + advertisement receipt: %.2f allocs, want 0", allocs)
	}
	if toggles != 6 || len(consumer.regionPresent) != 6 || !consumer.RegionHasMembers(addr.GroupForIndex(5)) {
		t.Errorf("consumer saw %d toggles and holds %v, want the 6 groups of the two overlapping lists", toggles, consumer.regionPresent)
	}
}

// BenchmarkMemberAdRegion256 prices one QueryInterval of the §4
// member-existence exchange on a 256-router degree-4 region in which 96
// routers have members: with one border soliciting, the cost is the border's
// flood plus one per member router; with none it must be nothing at all.
// ns/op is the whole interval (queries included); memberads/interval counts
// per-link sends, originated and relayed.
func BenchmarkMemberAdRegion256(b *testing.B) {
	for _, tc := range []struct {
		name      string
		consumers int
	}{{"one-consumer", 1}, {"no-consumer", 0}} {
		b.Run(tc.name, func(b *testing.B) {
			g := topology.Random(topology.GenConfig{Nodes: 256, Degree: 4}, rand.New(rand.NewSource(1)))
			net, rs := adRegion(g, func(i int, nd *netsim.Node, uni unicast.Router) *Router {
				if i < tc.consumers {
					return NewConsumer(nd, Config{}, uni, func(addr.IP, bool) {})
				}
				return New(nd, Config{}, uni)
			})
			for i, r := range rs[len(rs)-96:] {
				r.LocalJoin(r.Node.Ifaces[0], addr.GroupForIndex(i%16))
			}
			sent := func() (n int64) {
				for _, r := range rs {
					n += r.Metrics.Get(metrics.CtrlMemberAd)
				}
				return n
			}
			net.Sched.RunUntil(2 * DefaultQueryInterval)
			before := sent()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Sched.RunUntil(net.Sched.Now() + DefaultQueryInterval)
			}
			b.StopTimer()
			perInterval := float64(sent()-before) / float64(b.N)
			b.ReportMetric(perInterval, "memberads/interval")
			if tc.consumers == 0 && perInterval != 0 {
				b.Fatalf("a region with no consumer sent %.0f member-existence messages per interval", perInterval)
			}
			if tc.consumers == 1 && len(rs[0].regionPresent) != 16 {
				b.Fatalf("consumer holds %d groups, want 16", len(rs[0].regionPresent))
			}
		})
	}
}
