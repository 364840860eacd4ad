package unicast

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pim/internal/addr"
	"pim/internal/netsim"
)

// randomInternet wires n routers into a connected random graph of `links`
// point-to-point links (a spanning tree first, then random pairs, so
// parallel links occur) with delays of 1..maxDelay ms, hangs a stub LAN —
// router, one or two hosts and a zero-address anchor, as scenario.AddHost
// builds them — off each of the first `stubs` routers of a random
// permutation, and with transit joins four routers on one transit LAN.
func randomInternet(rng *rand.Rand, n, links, stubs, maxDelay int, transit bool) (*netsim.Network, []*netsim.Node) {
	net := netsim.NewNetwork()
	routers := make([]*netsim.Node, n)
	for i := range routers {
		routers[i] = net.AddNode(fmt.Sprintf("r%d", i))
	}
	for i := 0; i < links; i++ {
		a, b := i+1, rng.Intn(i+1)
		if a >= n {
			a = rng.Intn(n)
			b = (a + 1 + rng.Intn(n-1)) % n
		}
		ia := net.AddIface(routers[a], addr.V4(10, byte(200+i/256), byte(i), 1))
		ib := net.AddIface(routers[b], addr.V4(10, byte(200+i/256), byte(i), 2))
		net.Connect(ia, ib, netsim.Time(1+rng.Intn(maxDelay))*netsim.Millisecond)
	}
	for _, r := range rng.Perm(n)[:stubs] {
		lan := []*netsim.Iface{net.AddIface(routers[r], addr.V4(10, byte(100+r/256), byte(r), 254))}
		for h, hosts := 0, 1+rng.Intn(2); h < hosts; h++ {
			host := net.AddNode(fmt.Sprintf("h%d.%d", r, h))
			lan = append(lan, net.AddIface(host, addr.V4(10, byte(100+r/256), byte(r), byte(h+1))))
		}
		lan = append(lan, net.AddIface(net.AddNode(fmt.Sprintf("lan%d", r)), 0))
		net.ConnectLAN(netsim.Millisecond, lan...)
	}
	if transit {
		var lan []*netsim.Iface
		for i, r := range rng.Perm(n)[:4] {
			lan = append(lan, net.AddIface(routers[r], addr.V4(10, 1, 0, byte(i+1))))
		}
		net.ConnectLAN(netsim.Time(1+rng.Intn(maxDelay))*netsim.Millisecond, lan...)
	}
	return net, routers
}

// TestOracleMatchesReference holds the lazy oracle to the eager reference
// (oracle_ref_test.go) on random internets whose 1–3 ms delays make
// equal-cost ties the common case, and on one of 256 routers whose
// equal-distance batches exercise the radix queue at depth. Both oracles
// watch the same network; after every random link or interface flip
//
//   - the sequence of node IDs whose OnChange fired must be identical, and
//   - for a random half of the nodes — so that other views stay unsolved
//     across several changes — every interface address, plus one nobody
//     owns, must resolve to the same (Route, ok).
//
// Mutants run against it: the firing sequence kills a directly-connected
// route that reads live Up() instead of the old snapshot, notify-every-
// listener, and solving an unsolved view's "old" tree on the new snapshot;
// the route comparison kills the higher address winning (or no rule at all)
// between the source's own arcs, a queue ordered by distance alone, keeping
// the last equal-cost relaxation, the higher next hop winning between owners,
// and a memo kept across a change; only the 256-router internet kills queue
// keys that keep 8 bits of node ID. `<=` for `<` between the source's arcs
// survives, being no change: two arcs to one node never share a peer address.
func TestOracleMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 32; seed++ {
		rng, net := tieInternet(seed)
		matchReference(t, fmt.Sprintf("seed %d", seed), rng, net, 40)
	}
	// An internet shaped like the repository benchmark's: 256 routers of
	// degree 4, 1–10 ms delays and stub LANs. Its equal-distance batches run
	// to hundreds of nodes.
	rng := rand.New(rand.NewSource(1))
	net, _ := randomInternet(rng, 256, 512, 64, 10, false)
	matchReference(t, "256 routers", rng, net, 4)
}

// tieInternet is seed's internet of TestOracleMatchesReference: 8–40
// routers, 1–3 ms delays, stub LANs and a transit LAN. It returns the random
// source for the flips that follow.
func tieInternet(seed int64) (*rand.Rand, *netsim.Network) {
	rng := rand.New(rand.NewSource(seed))
	n := 8 + rng.Intn(33)
	net, _ := randomInternet(rng, n, n-1+n/2+rng.Intn(n), n/3, 3, true)
	return rng, net
}

// matchReference watches net with both oracles through `flips` random link
// or interface flips, checking OnChange firings and lookups as
// TestOracleMatchesReference describes.
func matchReference(t *testing.T, name string, rng *rand.Rand, net *netsim.Network, flips int) {
	t.Helper()
	ref, o := newRefOracle(net), NewOracle(net)
	var refFired, fired []int
	for _, nd := range net.Nodes {
		if rng.Intn(3) == 0 {
			continue
		}
		id := nd.ID
		ref.RouterFor(nd).OnChange(func() { refFired = append(refFired, id) })
		o.RouterFor(nd).OnChange(func() { fired = append(fired, id) })
	}
	dsts := append(ifaceAddrs(net), addr.V4(192, 0, 2, 1))
	var ifaces []*netsim.Iface
	for _, nd := range net.Nodes {
		ifaces = append(ifaces, nd.Ifaces...)
	}
	ifaceDown := map[*netsim.Iface]bool{}
	for flip := 0; flip <= flips; flip++ {
		what := "initial state"
		if flip > 0 && rng.Intn(5) < 3 {
			l := net.Links[rng.Intn(len(net.Links))]
			what = fmt.Sprintf("link %d up=%v", l.ID, !l.Up())
			net.SetLinkUp(l, !l.Up())
		} else if flip > 0 {
			ifc := ifaces[rng.Intn(len(ifaces))]
			what = fmt.Sprintf("iface %v up=%v", ifc, ifaceDown[ifc])
			net.SetIfaceUp(ifc, ifaceDown[ifc])
			ifaceDown[ifc] = !ifaceDown[ifc]
		}
		if !slices.Equal(fired, refFired) {
			t.Fatalf("%s flip %d (%s): OnChange fired on nodes %v, reference %v", name, flip, what, fired, refFired)
		}
		refFired, fired = refFired[:0], fired[:0]
		for _, nd := range net.Nodes {
			if rng.Intn(2) == 0 {
				continue
			}
			for _, dst := range dsts {
				want, wok := ref.RouterFor(nd).Lookup(dst)
				got, ok := o.RouterFor(nd).Lookup(dst)
				if got != want || ok != wok {
					t.Fatalf("%s flip %d (%s): %s to %v: got %+v %v, reference %+v %v",
						name, flip, what, nd.Name, dst, got, ok, want, wok)
				}
			}
		}
	}
}

// TestOracleFillDoesNotBumpGen: resolving a destination is not a route
// change — a bump per memo fill would flush rpf.Cache on every first lookup —
// while a link change is one, for every view.
func TestOracleFillDoesNotBumpGen(t *testing.T) {
	net, nodes := buildLine(4, netsim.Millisecond)
	o := NewOracle(net)
	r0, r3 := o.RouterFor(nodes[0]), o.RouterFor(nodes[3])
	g := r0.Gen()
	for _, dst := range append(ifaceAddrs(net), addr.V4(192, 0, 2, 1)) {
		r0.Lookup(dst)
	}
	if r0.Gen() != g {
		t.Errorf("lookups moved Gen %d -> %d", g, r0.Gen())
	}
	if n := r0.(*view).Len(); n != 4 {
		t.Errorf("Len = %d after resolving 3 link prefixes and a miss, want 4", n)
	}
	net.SetLinkUp(net.Links[2], false)
	if r0.Gen() == g || r3.Gen() == g {
		t.Error("link change did not move Gen on every view")
	}
	if n := r0.(*view).Len(); n != 0 {
		t.Errorf("Len = %d after a link change, want 0", n)
	}
}

// TestOracleUnknownNode: a node the oracle was not built over gets a panic
// naming it, not a nil view.
func TestOracleUnknownNode(t *testing.T) {
	net, _ := buildLine(2, netsim.Millisecond)
	o := NewOracle(net)
	late := net.AddNode("latecomer")
	defer func() {
		if msg := fmt.Sprint(recover()); msg != "unicast: oracle does not know node latecomer" {
			t.Errorf("RouterFor(late node) panicked with %q", msg)
		}
	}()
	o.RouterFor(late)
}

// TestSolveFootprint pins a warm solve's garbage to the tree it returns.
// Once the oracle's scratch has grown, solving a router allocates exactly
// its dist and first arrays. That holds on the current snapshot and on one a
// link change has retired, which Recompute solves for the old half of its
// comparison.
func TestSolveFootprint(t *testing.T) {
	net, routers := randomInternet(rand.New(rand.NewSource(1)), 256, 512, 64, 10, false)
	o := NewOracle(net)
	old := o.snap
	net.SetLinkUp(net.Links[300], false)
	if old.scratch != &o.scratch || o.snap.scratch != &o.scratch {
		t.Fatal("a snapshot solves outside its oracle's scratch")
	}
	solveAll := func() {
		for _, nd := range routers {
			old.solve(int32(nd.ID))
			o.snap.solve(int32(nd.ID))
		}
	}
	solveAll()
	if got, want := testing.AllocsPerRun(3, solveAll), float64(2*2*len(routers)); got != want {
		t.Errorf("%d warm solves allocated %v times, want %v (dist and first each)", 2*len(routers), got, want)
	}
}

// TestTreeParents holds SourceTree.Parent to the solve it reads, on
// TestOracleMatchesReference's internets and on a 256-router one before and
// after a link flip. For every root and every node the tree reaches, the
// parents lead back to the root, each step is tight (the child's distance is
// the parent's plus the link's delay), and the climb leaves the root by the
// arc first[u] names, the first hop of u's routes. Each parent link is the
// relaxation that fixed the node's distance in the reference Dijkstra
// (oracle_ref_test.go), which pins the rule between parallel links too. The
// root and unreached nodes have no parent.
func TestTreeParents(t *testing.T) {
	for seed := int64(0); seed < 32; seed++ {
		_, net := tieInternet(seed)
		checkParents(t, fmt.Sprintf("seed %d", seed), NewOracle(net))
	}
	net, _ := randomInternet(rand.New(rand.NewSource(1)), 256, 512, 64, 10, false)
	o := NewOracle(net)
	checkParents(t, "256 routers", o)
	net.SetLinkUp(net.Links[300], false)
	checkParents(t, "256 routers, link 300 down", o)
}

func checkParents(t *testing.T, name string, o *Oracle) {
	t.Helper()
	for _, root := range o.net.Nodes {
		st := o.Tree(root)
		_, _, _, relaxed := (&refOracle{}).dijkstra(root)
		for _, nd := range o.net.Nodes {
			if nd == root || st.dist[nd.ID] == unreached {
				if _, _, ok := st.Parent(nd); ok {
					t.Fatalf("%s: tree from %s gives %s a parent", name, root.Name, nd.Name)
				}
				continue
			}
			if out, in, _ := st.Parent(nd); relaxed[nd] != [2]*netsim.Iface{out, in} {
				t.Fatalf("%s: tree from %s: %s hangs off %v to %v, the reference relaxed it over %v", name, root.Name, nd.Name, out, in, relaxed[nd])
			}
			var out, in *netsim.Iface
			for v, steps := nd, 0; v != root; steps++ {
				o, i, ok := st.Parent(v)
				switch {
				case !ok || steps == len(st.dist):
					t.Fatalf("%s: tree from %s: %s's parents stop at %s", name, root.Name, nd.Name, v.Name)
				case i.Node != v || o.Link != i.Link:
					t.Fatalf("%s: tree from %s: %s's parent link is %v to %v", name, root.Name, v.Name, o, i)
				case st.dist[v.ID] != st.dist[o.Node.ID]+int32(o.Link.Delay):
					t.Fatalf("%s: tree from %s: %s at %d µs under %s at %d µs over %d µs", name, root.Name,
						v.Name, st.dist[v.ID], o.Node.Name, st.dist[o.Node.ID], o.Link.Delay)
				}
				out, in, v = o, i, o.Node
			}
			s := st.snap
			if first := &s.arcs[s.start[root.ID]+int32(st.first[nd.ID])]; out != first.ifc || int32(in.Node.ID) != first.to {
				t.Fatalf("%s: tree from %s: %s hangs off %v to %v, its first hop is %v to node %d",
					name, root.Name, nd.Name, out, in, first.ifc, first.to)
			}
		}
	}
}

// TestTreeFootprint pins a warm tree query to the solve's two tree arrays:
// climbing the tree allocates nothing.
func TestTreeFootprint(t *testing.T) {
	net, routers := randomInternet(rand.New(rand.NewSource(1)), 256, 512, 64, 10, false)
	o := NewOracle(net)
	query := func() {
		st := o.Tree(routers[0])
		for _, nd := range net.Nodes {
			st.Parent(nd)
		}
	}
	query()
	if got := testing.AllocsPerRun(3, query); got != 2 {
		t.Errorf("warm tree query and climb: %v allocations, want 2 (dist and first)", got)
	}
}

// benchInternet is the 1 024-router internet of the two oracle benchmarks:
// degree 4, delays 1–10 ms, 200 stub LANs.
func benchInternet() (*netsim.Network, []*netsim.Node) {
	return randomInternet(rand.New(rand.NewSource(1)), 1024, 2048, 200, 10, false)
}

// BenchmarkOracleFirstLookups1024 is what a deployment pays the oracle for:
// build it, then every router resolves 64 destinations (one solve and 64
// memo fills each).
func BenchmarkOracleFirstLookups1024(b *testing.B) {
	net, routers := benchInternet()
	dsts := ifaceAddrs(net)
	rand.New(rand.NewSource(2)).Shuffle(len(dsts), func(i, j int) { dsts[i], dsts[j] = dsts[j], dsts[i] })
	dsts = dsts[:64]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := NewOracle(net)
		for _, nd := range routers {
			v := o.RouterFor(nd)
			for _, dst := range dsts {
				v.Lookup(dst)
			}
		}
	}
}

// BenchmarkOracleLinkFlap1024 is one backbone link going down and coming
// back with a listener on every router, as under PIM-SM: each flap solves
// every router on the new snapshot (and, the first time, on the old one) to
// decide whom to notify.
func BenchmarkOracleLinkFlap1024(b *testing.B) {
	net, routers := benchInternet()
	o := NewOracle(net)
	notified := 0
	for _, nd := range routers {
		o.RouterFor(nd).OnChange(func() { notified++ })
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.SetLinkUp(net.Links[1500], false)
		net.SetLinkUp(net.Links[1500], true)
	}
	b.ReportMetric(float64(notified)/float64(2*b.N), "notified/flap")
}
