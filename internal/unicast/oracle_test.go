package unicast

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
// the last equal-cost relaxation and the higher next hop winning between
// owners; only the 256-router internet kills queue keys that keep 8 bits of
// node ID. `<=` for `<` between the source's arcs survives, being no change:
// two arcs to one node never share a peer address.
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
// change — a bump per first lookup would flush rpf.Cache on every miss —
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
	net.SetLinkUp(net.Links[2], false)
	if r0.Gen() == g || r3.Gen() == g {
		t.Error("link change did not move Gen on every view")
	}
}

// TestOracleLookupZeroAlloc: a view keeps no per-destination answers, so
// once its tree is solved a lookup allocates nothing, however many /24s it
// has not resolved before. Each try takes a fresh router, solves its tree
// with one lookup, and counts one pass over every /24 of a 256-router
// internet plus one nobody owns.
func TestOracleLookupZeroAlloc(t *testing.T) {
	net, routers := randomInternet(rand.New(rand.NewSource(1)), 256, 512, 64, 10, false)
	o := NewOracle(net)
	seen := map[uint32]bool{}
	var dsts []addr.IP
	for _, dst := range append(ifaceAddrs(net), addr.V4(192, 0, 2, 1)) {
		if !seen[uint32(dst)>>8] {
			seen[uint32(dst)>>8] = true
			dsts = append(dsts, dst)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	allocs := math.Inf(1)
	for _, nd := range routers[:3] {
		v := o.RouterFor(nd)
		v.Lookup(dsts[0])
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, dst := range dsts[1:] {
			v.Lookup(dst)
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, float64(after.Mallocs-before.Mallocs))
	}
	if per := allocs / float64(len(dsts)-1); per != 0 {
		t.Errorf("a solved view's lookups of %d fresh /24s allocated %v objects each, want 0", len(dsts)-1, per)
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
// its parent array, one cell of the snapshot's width per node. That holds
// on the current snapshot and on one a link change has retired, which
// Recompute solves for the old half of its comparison.
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
			old.solve(int32(nd.ID), &o.scratch.paths[0])
			o.snap.solve(int32(nd.ID), &o.scratch.paths[1])
		}
	}
	allocs, bytes := footprint(solveAll)
	if want := float64(2 * len(routers)); allocs != want {
		t.Errorf("%d warm solves allocated %v times, want %v (the parent array each)", 2*len(routers), allocs, want)
	}
	n := len(net.Nodes)
	if per, want := bytes/float64(len(routers)), treeBytes(n, old.width())+treeBytes(n, o.snap.width()); per != want {
		t.Errorf("a warm solve over %d nodes on each snapshot allocated %v bytes, want %v (cells of %d and %d bits, rounded to size classes)",
			n, per, want, old.width(), o.snap.width())
	}
}

// footprint calls f once to warm it, then returns the heap allocations and
// bytes of one more call, the least of a few tries: whatever else allocates
// meanwhile only adds.
func footprint(f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	// The process's first collection starts the runtime's mark workers,
	// which allocate; collect once so that the count is f's alone.
	runtime.GC()
	allocs, bytes = math.Inf(1), math.Inf(1)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		allocs = min(allocs, float64(after.Mallocs-before.Mallocs))
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc))
	}
	return allocs, bytes
}

// treeBytes is what the allocator holds for a tree over n nodes of w-bit
// cells: measured on a plain slice of the ⌈n·w/64⌉ words a tree must be.
func treeBytes(n, w int) float64 {
	var s []uint64
	_, b := footprint(func() { s = make([]uint64, (n*w+63)/64) })
	runtime.KeepAlive(s)
	return b
}

// width is the width in bits of a tree cell over s.
func (s *snapshot) width() int { return 1 << s.wlog }

// TestTreeParents holds SourceTree.Parent to the solve it reads, on
// TestOracleMatchesReference's internets, on a small one of parallel links
// and stub LANs, and on a 256-router one before and after a link flip. For
// every root and every node the tree reaches, the parents lead back to the
// root, each step is tight (the child's reference distance is the parent's
// plus the link's delay), and the climb leaves the root by the reference's
// first hop, the first hop of the node's routes; the fold of the tree agrees
// on both. Each parent link is the relaxation that fixed the node's distance
// in the reference Dijkstra (oracle_ref_test.go), which pins the rule
// between parallel links too. The root and unreached nodes have no parent.
// A tree stores a node's own arc to its parent and reads the parent's as its
// reverse, so the trees must cross the links where that mapping can slip:
// one of several parallel links, and a stub LAN's hop to a host and to its
// anchor.
func TestTreeParents(t *testing.T) {
	var seen shapes
	for seed := int64(0); seed < 32; seed++ {
		_, net := tieInternet(seed)
		seen.add(checkParents(t, fmt.Sprintf("seed %d", seed), NewOracle(net)))
	}
	if seen.parallel == 0 || seen.host == 0 || seen.anchor == 0 {
		t.Errorf("TestOracleMatchesReference's internets: parents over %+v, want every shape", seen)
	}
	if got := checkParents(t, "parallel links and stub LANs", NewOracle(shapesInternet())); got.parallel == 0 || got.host == 0 || got.anchor == 0 {
		t.Errorf("parallel links and stub LANs: parents over %+v, want every shape", got)
	}
	net, _ := randomInternet(rand.New(rand.NewSource(1)), 256, 512, 64, 10, false)
	o := NewOracle(net)
	checkParents(t, "256 routers", o)
	net.SetLinkUp(net.Links[300], false)
	checkParents(t, "256 routers, link 300 down", o)
}

// shapes counts the tree parents over links where a reverse arc can be
// mistaken for another: one of several parallel point-to-point links, and a
// LAN's hop to a host or to an anchor.
type shapes struct{ parallel, host, anchor int }

func (s *shapes) add(o shapes) {
	s.parallel, s.host, s.anchor = s.parallel+o.parallel, s.host+o.host, s.anchor+o.anchor
}

// note counts the parent link out → in among s.
func (s *shapes) note(out, in *netsim.Iface) {
	if len(out.Link.Ifaces) > 2 {
		switch {
		case in.Addr == 0:
			s.anchor++
		case len(in.Node.Ifaces) == 1:
			s.host++
		}
		return
	}
	links := 0
	for _, ifc := range out.Node.Ifaces {
		if l := ifc.Link; len(l.Ifaces) == 2 && (l.Ifaces[0].Node == in.Node || l.Ifaces[1].Node == in.Node) {
			links++
		}
	}
	if links > 1 {
		s.parallel++
	}
}

// shapesInternet is four routers in a ring whose r0–r1 hop is three
// parallel links of one delay, the later links with the lower addresses,
// and a stub LAN of a router, a host and an anchor off r1 and off r3.
func shapesInternet() *netsim.Network {
	net := netsim.NewNetwork()
	var r [4]*netsim.Node
	for i := range r {
		r[i] = net.AddNode(fmt.Sprintf("r%d", i))
	}
	link := func(a, b int, sub byte) {
		net.Connect(net.AddIface(r[a], addr.V4(10, 200, sub, 1)), net.AddIface(r[b], addr.V4(10, 200, sub, 2)), netsim.Millisecond)
	}
	link(0, 1, 9)
	link(0, 1, 8)
	link(0, 1, 7)
	link(1, 2, 1)
	link(2, 3, 2)
	link(3, 0, 3)
	for _, i := range []int{1, 3} {
		host := net.AddNode(fmt.Sprintf("h%d", i))
		anchor := net.AddNode(fmt.Sprintf("lan%d", i))
		net.ConnectLAN(netsim.Millisecond, net.AddIface(r[i], addr.V4(10, 100, byte(i), 254)),
			net.AddIface(host, addr.V4(10, 100, byte(i), 1)), net.AddIface(anchor, 0))
	}
	return net
}

// checkParents checks every tree of o as TestTreeParents describes and
// counts the parents over the links shapes names.
func checkParents(t *testing.T, name string, o *Oracle) (seen shapes) {
	t.Helper()
	var p paths
	for _, root := range o.net.Nodes {
		st := o.Tree(root)
		p.fold(st.snap, st.tree, int32(root.ID))
		dist, firstIface, firstHop, relaxed := (&refOracle{}).dijkstra(root)
		for _, nd := range o.net.Nodes {
			if _, reached := dist[nd]; nd == root || !reached {
				if _, _, ok := st.Parent(nd); ok {
					t.Fatalf("%s: tree from %s gives %s a parent", name, root.Name, nd.Name)
				}
				continue
			}
			out, in, _ := st.Parent(nd)
			if relaxed[nd] != [2]*netsim.Iface{out, in} {
				t.Fatalf("%s: tree from %s: %s hangs off %v to %v, the reference relaxed it over %v", name, root.Name, nd.Name, out, in, relaxed[nd])
			}
			seen.note(out, in)
			for v, steps := nd, 0; v != root; steps++ {
				o, i, ok := st.Parent(v)
				switch {
				case !ok || steps == len(st.snap.start):
					t.Fatalf("%s: tree from %s: %s's parents stop at %s", name, root.Name, nd.Name, v.Name)
				case i.Node != v || o.Link != i.Link:
					t.Fatalf("%s: tree from %s: %s's parent link is %v to %v", name, root.Name, v.Name, o, i)
				case dist[v] != dist[o.Node]+int64(o.Link.Delay):
					t.Fatalf("%s: tree from %s: %s at %d µs under %s at %d µs over %d µs", name, root.Name,
						v.Name, dist[v], o.Node.Name, dist[o.Node], o.Link.Delay)
				}
				out, in, v = o, i, o.Node
			}
			if out != firstIface[nd] || in.Addr != firstHop[nd] {
				t.Fatalf("%s: tree from %s: %s hangs off %v to %v, its first hop is %v to %v",
					name, root.Name, nd.Name, out, in, firstIface[nd], firstHop[nd])
			}
			if d, first := p.read(int32(nd.ID)); d != dist[nd] || st.snap.arcs[first].ifc != out || st.snap.arcs[first].hop != in.Addr {
				t.Fatalf("%s: tree from %s: %s folds to %d µs over arc %d, want %d µs over %v to %v",
					name, root.Name, nd.Name, d, first, dist[nd], out, in)
			}
		}
	}
	return seen
}

// TestTreeFootprint pins a warm tree query to the solve's parent array, one
// cell of the snapshot's width per node: climbing the tree allocates
// nothing.
func TestTreeFootprint(t *testing.T) {
	net, routers := randomInternet(rand.New(rand.NewSource(1)), 256, 512, 64, 10, false)
	o := NewOracle(net)
	query := func() {
		st := o.Tree(routers[0])
		for _, nd := range net.Nodes {
			st.Parent(nd)
		}
	}
	allocs, bytes := footprint(query)
	if want := treeBytes(len(net.Nodes), o.snap.width()); allocs != 1 || bytes != want {
		t.Errorf("warm tree query and climb: %v allocations of %v bytes, want 1 of %v (the parent array)", allocs, bytes, want)
	}
}

// benchInternet is the 1 024-router internet of the two oracle benchmarks:
// degree 4, delays 1–10 ms, 200 stub LANs.
func benchInternet() (*netsim.Network, []*netsim.Node) {
	return randomInternet(rand.New(rand.NewSource(1)), 1024, 2048, 200, 10, false)
}

// BenchmarkOracleFirstLookups1024 is what a deployment pays the oracle for:
// build it, then every router resolves 64 destinations (one solve and 64
// climbs each).
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
