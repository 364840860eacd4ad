package unicast

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pim/internal/addr"
	"pim/internal/netsim"
)

// startLS runs LS on every router of net (the nodes named r…, as
// randomInternet and buildLine name them) and runs the network to
// convergence.
func startLS(net *netsim.Network) map[*netsim.Node]*LS {
	lss := map[*netsim.Node]*LS{}
	for _, nd := range net.Nodes {
		if strings.HasPrefix(nd.Name, "r") {
			lss[nd] = NewLS(nd)
			lss[nd].Start()
		}
	}
	converge(net)
	return lss
}

// converge runs net long enough for every LS router to hold every live
// router's LSA: a change floods at once, but a partition that heals is
// crossed only by the next refresh.
func converge(net *netsim.Network) {
	net.Sched.RunUntil(net.Sched.Now() + LSDefaultRefresh + netsim.Second)
}

// TestLSMatchesOracle: LS runs the oracle's build, solve and best over its
// LSA database, so once converged every router's table is the oracle's,
// route for route, equal-cost ties included. On TestOracleMatchesReference's
// internets, whose 1–3 ms delays make ties the common case, every router
// must resolve every interface address, plus one nobody owns, to the
// oracle's (Route, ok): converged, and again after each of six random link
// or interface flips. A flip that cuts a router off leaves its stale LSAs
// behind on both sides, and only the rule that both ends advertise a pair
// keeps them out of the graph.
func TestLSMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 32; seed++ {
		rng, net := tieInternet(seed)
		o := NewOracle(net)
		lss := startLS(net)
		dsts := append(ifaceAddrs(net), addr.V4(192, 0, 2, 1))
		var ifaces []*netsim.Iface
		for _, nd := range net.Nodes {
			ifaces = append(ifaces, nd.Ifaces...)
		}
		what := "converged"
		for flip := 0; flip <= 6; flip++ {
			if flip > 0 {
				if rng.Intn(2) == 0 {
					l := net.Links[rng.Intn(len(net.Links))]
					what = fmt.Sprintf("link %d up=%v", l.ID, !l.Up())
					net.SetLinkUp(l, !l.Up())
				} else {
					ifc := ifaces[rng.Intn(len(ifaces))]
					what = fmt.Sprintf("iface %v up=%v", ifc, !ifc.Up())
					net.SetIfaceUp(ifc, !ifc.Up())
				}
				converge(net)
			}
			for _, nd := range net.Nodes {
				l := lss[nd]
				if l == nil {
					continue
				}
				for _, dst := range dsts {
					want, wok := o.RouterFor(nd).Lookup(dst)
					if got, ok := l.Table().Lookup(dst); got != want || ok != wok {
						t.Fatalf("seed %d flip %d (%s): %s to %v: LS %+v %v, oracle %+v %v",
							seed, flip, what, nd.Name, dst, got, ok, want, wok)
					}
				}
			}
		}
	}
}

// TestLSTieIsDeterministic: where r0 has two equal-cost routes, 200 builds
// must pick one next hop, the oracle's. In a triangle of equal delays r0
// reaches the r1–r2 link's prefix through r1 or r2, and the lower next hop
// wins. In a square it reaches r3's stub link through r1 or r2, and the
// path through the neighbour that settles first wins: r1, by Node.ID,
// although r2's router ID and next hop are the lower.
func TestLSTieIsDeterministic(t *testing.T) {
	for _, c := range []struct {
		name  string
		links [][2]int // link i joins its two routers on 10.200.i.0/24, the first at .1
		dst   addr.IP
	}{
		{"triangle", [][2]int{{0, 1}, {0, 2}, {1, 2}}, addr.V4(10, 200, 2, 1)},
		{"square", [][2]int{{0, 2}, {0, 1}, {1, 3}, {2, 3}, {3, 4}}, addr.V4(10, 200, 4, 1)},
	} {
		hops, want := map[addr.IP]int{}, Route{}
		for build := 0; build < 200; build++ {
			net := netsim.NewNetwork()
			for i := 0; i < len(c.links); i++ {
				net.AddNode(fmt.Sprintf("r%d", i))
			}
			for i, l := range c.links {
				a := net.AddIface(net.Nodes[l[0]], addr.V4(10, 200, byte(i), 1))
				b := net.AddIface(net.Nodes[l[1]], addr.V4(10, 200, byte(i), 2))
				net.Connect(a, b, netsim.Millisecond)
			}
			r0 := net.Nodes[0]
			want, _ = NewOracle(net).RouterFor(r0).Lookup(c.dst)
			rt, ok := startLS(net)[r0].Table().Lookup(c.dst)
			if !ok {
				t.Fatalf("%s build %d: r0 has no route to %v", c.name, build, c.dst)
			}
			hops[rt.NextHop]++
		}
		if len(hops) != 1 || hops[want.NextHop] != 200 {
			t.Errorf("%s: r0's next hops to %v over 200 builds: %v, want %v every time", c.name, c.dst, hops, want.NextHop)
		}
	}
}

// TestLSRefreshRunsNoSPF: a periodic refresh that repeats its origin's
// records changes no table, so on BenchmarkLSConverge's internet ten quiet
// refresh periods after convergence run no SPF anywhere (64 routers × 64
// LSAs a period ran 40 960 while every install ran one). A link flip
// changes two LSAs and must still run them.
func TestLSRefreshRunsNoSPF(t *testing.T) {
	net, _ := randomInternet(rand.New(rand.NewSource(1)), 64, 128, 16, 10, false)
	lss := startLS(net)
	runs := func() (n int) {
		for _, l := range lss {
			n += l.spfRuns
		}
		return n
	}
	before := runs()
	net.Sched.RunUntil(net.Sched.Now() + 10*LSDefaultRefresh)
	if n := runs() - before; n != 0 {
		t.Errorf("ten quiet refresh periods ran %d SPFs, want 0", n)
	}
	before = runs()
	net.SetLinkUp(net.Links[0], false)
	converge(net)
	if n := runs() - before; n == 0 {
		t.Error("a link going down ran no SPF")
	}
}

// BenchmarkLSConverge builds a 64-router internet with 16 stub LANs and
// 1–10 ms delays and runs LS on every router from start to convergence:
// each router floods its LSA at start and once a refresh period, and an
// install runs one SPF when the LSA's records are new.
func BenchmarkLSConverge(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net, _ := randomInternet(rand.New(rand.NewSource(1)), 64, 128, 16, 10, false)
		startLS(net)
	}
}
