package unicast

import (
	"fmt"
	"math"
	"slices"

	"pim/internal/addr"
	"pim/internal/netsim"
)

// Oracle answers every node's route lookups from global topology knowledge,
// as if unicast routing converged the instant a link changed. It is the
// "ideal converged unicast routing" substrate: experiments that are about
// multicast behaviour rather than unicast convergence run over it.
//
// Nothing is computed until it is asked for (§2: PIM only consults unicast
// tables, and §3.2/§3.8 only about sources and RPs). A link change rebuilds
// one shared, immutable snapshot of the live graph; a node's first Lookup
// after that runs one Dijkstra from the node over the snapshot, and every
// lookup reads its destination /24's owners off that tree. Nothing is
// memoised per destination: rpf.Cache, in front of every substrate, is the
// one route memo. The routes, and the OnChange firings, are exactly those of
// computing every table on every link change: oracle_ref_test.go keeps that
// implementation as the reference.
//
// A simulation runs on one goroutine, so nothing here is locked.
type Oracle struct {
	net   *netsim.Network
	snap  *snapshot
	views []*view // by Node.ID
	gen   uint64  // topology changes seen; every view's Gen
	// scratch is every snapshot's solve workspace: one queue, one beyond
	// list and two trees' routes, reused by every solve this oracle runs.
	scratch solveScratch
}

// NewOracle snapshots the current topology and subscribes to link changes on
// every node so routes stay current.
func NewOracle(net *netsim.Network) *Oracle {
	o := &Oracle{net: net}
	for _, nd := range net.Nodes {
		o.views = append(o.views, &view{o: o, id: int32(nd.ID)})
		nd.OnLinkChange(func(*netsim.Iface) { o.Recompute() })
	}
	o.snap = o.snapshot(o.upBits())
	return o
}

// RouterFor returns the node's Router view. The node must have existed when
// the oracle was built.
func (o *Oracle) RouterFor(nd *netsim.Node) Router {
	if nd.Net != o.net || nd.ID >= len(o.views) {
		panic("unicast: oracle does not know node " + nd.Name)
	}
	return o.views[nd.ID]
}

// Solved reports whether the node currently holds a shortest-path tree: it
// has looked something up, or had listeners to decide for, since the last
// topology change. Hosts and LAN anchors never should.
func (o *Oracle) Solved(nd *netsim.Node) bool { return o.RouterFor(nd).(*view).tree != nil }

// Recompute brings the oracle up to date with the live topology. A link
// change calls it once per attached node; only the first call finds the up
// bits changed. Every view is invalidated, and the views that have listeners
// are re-solved at once to decide whether any prefix's best route differs
// between the old snapshot and the new one — the condition under which a
// fully materialised table would have reported a change.
func (o *Oracle) Recompute() {
	up := o.upBits()
	if slices.Equal(up, o.snap.up) {
		return
	}
	old := o.snap
	o.snap = o.snapshot(up)
	o.gen++
	var changed []*view
	was, now := &o.scratch.paths[0], &o.scratch.paths[1]
	for _, v := range o.views {
		t := v.tree
		v.tree = nil
		if len(v.listeners) == 0 {
			continue
		}
		if t == nil {
			old.solve(v.id, was)
		} else {
			was.fold(old, t, v.id)
		}
		v.tree = o.snap.solve(v.id, now)
		if routesDiffer(v.id, old, was, o.snap, now) {
			changed = append(changed, v)
		}
	}
	for _, v := range changed {
		for _, fn := range v.listeners {
			fn()
		}
	}
}

// upBits flattens every interface's Up() in Nodes × Ifaces order.
func (o *Oracle) upBits() []bool {
	var up []bool
	for _, nd := range o.net.Nodes {
		for _, ifc := range nd.Ifaces {
			up = append(up, ifc.Up())
		}
	}
	return up
}

// arc is one directed adjacency: out a local interface to one peer interface
// on its link (a LAN is a clique at the LAN's delay).
type arc struct {
	to    int32 // peer's Node.ID
	delay int64
	ifc   *netsim.Iface // local interface
	hop   addr.IP       // peer's address
	// back is the offset among the peer's arcs of the arc that runs the
	// other way between the same two interfaces (it fills padding).
	back uint16
}

// owner is one interface of a /24 that a snapshot's live rule admits.
type owner struct {
	node int32
	ifc  *netsim.Iface
}

// snapshot is the graph of a network at one instant, as a live rule admits
// it; the oracle's are shared read-only by all views. Node v's arcs are
// arcs[start[v]:start[v+1]], in Ifaces × Link.Ifaces order; owners lists
// each /24's interfaces in Nodes × Ifaces order, keyed by the prefix's top
// 24 bits (every routed prefix is a LinkPrefix, so longest-prefix match is
// exact match on those).
type snapshot struct {
	up     []bool // the oracle's: the up bits it was built at
	start  []int32
	arcs   []arc
	owners map[uint32][]owner
	// wlog is log2 of the width in bits of a tree cell over the snapshot:
	// cellLog of the most arcs any one node has.
	wlog uint8
	// scratch is the building oracle's or LS router's; a snapshot built
	// bare gets its own on its first solve.
	scratch *solveScratch
}

// solveScratch is what a build and a solve need besides the snapshot and
// the tree they return.
type solveScratch struct {
	queue distQueue
	// beyond collects nodes offered only distances over MaxPathMetric;
	// one still unreached at the end has no path that fits.
	beyond []int32
	// paths hold the routes of two trees: a solve fills one, and Recompute
	// compares a view's old routes, solved or folded, with its new.
	paths [2]paths
	// base, next and joints are build's: each node's first interface in
	// Nodes × Ifaces order, each interface's arc count and then its next
	// arc, and the interface pairs it joins.
	base, next []int32
	joints     []joint
}

// liveRule says which of a network's arcs and owners a snapshot holds. arc
// is asked once for each two interfaces a, b of one link (a first in
// Link.Ifaces): whether the snapshot joins them, and the delay of both of
// the arcs that join them. owns is asked of each addressed interface.
type liveRule interface {
	arc(a, b *netsim.Iface) (delay int64, ok bool)
	owns(ifc *netsim.Iface) bool
}

// upRule is the oracle's: two up interfaces are joined at their link's
// delay, and an up, addressed interface owns its /24.
type upRule struct{}

func (upRule) arc(a, b *netsim.Iface) (int64, bool) { return int64(a.Link.Delay), a.Up() && b.Up() }
func (upRule) owns(ifc *netsim.Iface) bool          { return ifc.Up() }

// joint is two interfaces a snapshot joins: an arc each way.
type joint struct {
	a, b  *netsim.Iface
	delay int64
}

// snapshot builds the graph of the live topology, whose up bits are up. It
// panics when a node has more than MaxArcs arcs.
func (o *Oracle) snapshot(up []bool) *snapshot {
	s := &snapshot{up: up, owners: map[uint32][]owner{}, scratch: &o.scratch}
	s.build(o.net, upRule{})
	return s
}

// build lays out in s the graph that live admits over net, reusing s's
// arrays; a reused owners map keeps its keys, emptied. One pass over the
// links collects the joints and counts each interface's arcs; the counts'
// prefix sums place every interface's arcs after those of the interfaces
// before it in Nodes × Ifaces order, and a second pass over the joints
// fills them. An interface's joints come in Link.Ifaces order of its peers,
// so its arcs do too, and each arc's back offset is known when it is
// placed. The most arcs at one node fix the width of a tree cell. It panics
// when a node has more than MaxArcs arcs.
func (s *snapshot) build(net *netsim.Network, live liveRule) {
	sc := s.scratch
	n := len(net.Nodes)
	base := grown(sc.base, n+1)
	base[0] = 0
	for v, nd := range net.Nodes {
		base[v+1] = base[v] + int32(len(nd.Ifaces))
	}
	index := func(ifc *netsim.Iface) int32 { return base[ifc.Node.ID] + int32(ifc.Index) }
	next, joints := grown(sc.next, int(base[n])+1), sc.joints[:0]
	clear(next)
	for _, l := range net.Links {
		for i, a := range l.Ifaces {
			for _, b := range l.Ifaces[i+1:] {
				if d, ok := live.arc(a, b); ok {
					joints = append(joints, joint{a, b, d})
					next[index(a)+1]++
					next[index(b)+1]++
				}
			}
		}
	}
	for i := 1; i < len(next); i++ {
		next[i] += next[i-1]
	}
	s.start = grown(s.start, n+1)
	for v := range s.start {
		s.start[v] = next[base[v]]
	}
	var most int32
	for v, nd := range net.Nodes {
		arcs := s.start[v+1] - s.start[v]
		if arcs > MaxArcs {
			panic(fmt.Sprintf("unicast: node %s has %d arcs, beyond the oracle's %d", nd.Name, arcs, MaxArcs))
		}
		most = max(most, arcs)
	}
	s.wlog = cellLog(most)
	s.arcs = grown(s.arcs, int(s.start[n]))
	for _, j := range joints {
		a, b := &next[index(j.a)], &next[index(j.b)]
		va, vb := int32(j.a.Node.ID), int32(j.b.Node.ID)
		s.arcs[*a] = arc{to: vb, delay: j.delay, ifc: j.a, hop: j.b.Addr, back: uint16(*b - s.start[vb])}
		s.arcs[*b] = arc{to: va, delay: j.delay, ifc: j.b, hop: j.a.Addr, back: uint16(*a - s.start[va])}
		*a, *b = *a+1, *b+1
	}
	sc.base, sc.next, sc.joints = base, next, joints
	for key, owners := range s.owners {
		s.owners[key] = owners[:0]
	}
	for _, nd := range net.Nodes {
		for _, ifc := range nd.Ifaces {
			if ifc.Addr != 0 && live.owns(ifc) {
				key := uint32(ifc.Addr) >> 8
				s.owners[key] = append(s.owners[key], owner{int32(nd.ID), ifc})
			}
		}
	}
}

// grown returns x resized to n elements, reusing its capacity; the
// elements keep whatever they held.
func grown[T any](x []T, n int) []T { return slices.Grow(x[:0], n)[:n] }

// tree is one node's shortest-path tree over a snapshot (every router that
// looks anything up holds one): for each node, a cell holding the offset
// among its own arcs of the arc back over the link by which solve fixed its
// distance, noParent at the root and at a node the tree does not reach. A
// node's distance and first hop are a climb up its parents. The cells are
// as wide as the snapshot's (cellLog) and packed into 64-bit words, read
// and written by cell and setCell; the width is a power of two, so no cell
// straddles two words.
type tree []uint64

const (
	unreached = -1
	noArc     = -1
)

// MaxArcs is the most arcs (one per peer interface on each up link) a node
// may have: a tree names a node's arc to its parent by its offset among
// them in a cell of at most 16 bits, and noParent takes the last value.
const MaxArcs = math.MaxUint16 - 1

// cellLog returns log2 of the width of a tree cell over a snapshot whose
// nodes have at most most arcs: the narrowest of 1, 2, 4, 8 and 16 bits
// whose all-ones value, noParent, is no arc's offset (those run to most−1).
func cellLog(most int32) uint8 {
	var wlog uint8
	for 1<<(1<<wlog)-1 < int64(most) {
		wlog++
	}
	return wlog
}

// noParent is the all-ones cell of a tree over s.
func (s *snapshot) noParent() uint64 { return 1<<(1<<s.wlog) - 1 }

// cell returns u's cell of t, a tree over s.
func (s *snapshot) cell(t tree, u int32) uint64 {
	bit := uint(u) << s.wlog
	return t[bit/64] >> (bit % 64) & s.noParent()
}

// setCell sets u's cell of t, a tree over s, to c.
func (s *snapshot) setCell(t tree, u int32, c uint64) {
	bit := uint(u) << s.wlog
	t[bit/64] = t[bit/64]&^(s.noParent()<<(bit%64)) | c<<(bit%64)
}

// MaxPathMetric is the longest shortest path the oracle can hold, in µs
// (about 35.8 simulated minutes): solve keeps distances in 32 bits.
const MaxPathMetric = math.MaxInt32

// solve runs Dijkstra from src in the snapshot's scratch, allocating only
// the tree it returns, and leaves every node's distance and first hop in p.
// Ties are everywhere with small integer delays, and which equal-cost first
// hop wins is source-relative: nodes settle in (distance, ID) order, a node
// keeps the first relaxation that reached its final distance, and between
// the source's own arcs to one neighbour the lower peer address wins. A tree
// toward the destination, or a different settling order, picks other next
// hops.
//
// It panics when a node's distance exceeds MaxPathMetric;
// scenario.CheckGraph refuses the graphs that could.
func (s *snapshot) solve(src int32, p *paths) tree {
	n := len(s.start) - 1
	if s.scratch == nil {
		s.scratch = new(solveScratch)
	}
	t := make(tree, (n<<s.wlog+63)/64)
	for i := range t {
		t[i] = math.MaxUint64
	}
	dist, first := p.size(n)
	for i := range dist {
		dist[i], first[i] = unreached, noArc
	}
	dist[src] = 0
	q, beyond := &s.scratch.queue, s.scratch.beyond[:0]
	q.reset()
	q.push(distKey(0, src))
	for q.len() > 0 {
		k := q.pop()
		d, v := int32(k>>32), int32(uint32(k))
		if d > dist[v] {
			continue // v settled at a shorter distance pushed later
		}
		room, fv := MaxPathMetric-int64(d), first[v]
		for a := s.start[v]; a < s.start[v+1]; a++ {
			arc := &s.arcs[a]
			u := arc.to
			if arc.delay > room {
				beyond = append(beyond, u)
				continue
			}
			nd := d + int32(arc.delay)
			switch old := dist[u]; {
			case old == unreached || nd < old:
				dist[u], first[u] = nd, fv
				s.setCell(t, u, uint64(arc.back))
				if v == src {
					first[u] = a
				}
				q.push(distKey(nd, u))
			case nd == old && v == src && arc.hop < s.arcs[first[u]].hop:
				// u's distance is the delay of an arc of src's, so its
				// parent is src, over arc first[u].
				s.setCell(t, u, uint64(arc.back))
				first[u] = a
			}
		}
	}
	s.scratch.beyond = beyond
	for _, u := range beyond {
		if dist[u] == unreached {
			panic(fmt.Sprintf("unicast: node %d is farther than %d µs from node %d, beyond the oracle's path metric bound", u, MaxPathMetric, src))
		}
	}
	return t
}

// reverse returns the arc that runs the other way between arc a's two
// interfaces. It carries a's delay, since both ends of a link share one.
func (s *snapshot) reverse(a int32) int32 {
	return s.start[s.arcs[a].to] + int32(s.arcs[a].back)
}

// toParent returns u's own arc to its parent in t, noArc at the root and at
// a node t does not reach. Its reverse is the arc solve relaxed to fix u's
// distance, and it carries the same delay.
func (s *snapshot) toParent(t tree, u int32) int32 {
	c := s.cell(t, u)
	if c == s.noParent() {
		return noArc
	}
	return s.start[u] + int32(c)
}

// climb walks u's parents up to root: u's distance from it in µs
// (unreached if the tree does not reach u) and the root's arc the path
// leaves by (noArc at the root). Each step adds the delay that fixed the
// child's distance in solve, so the sum is that distance.
func (s *snapshot) climb(t tree, root, u int32) (dist int64, first int32) {
	if u == root {
		return 0, noArc
	}
	for {
		up := s.toParent(t, u)
		if up == noArc {
			return unreached, noArc
		}
		dist += s.arcs[up].delay
		if u = s.arcs[up].to; u == root {
			return dist, s.reverse(up)
		}
	}
}

// paths is every node's route in one tree: its distance from the root in µs
// (unreached if none) and the root's arc the path leaves by, so that all of
// a tree's routes can be read at once.
type paths struct {
	dist, first []int32
	stack       []int32 // fold's scratch
}

// size resizes dist and first to n nodes, reusing their capacity.
func (p *paths) size(n int) (dist, first []int32) {
	p.dist, p.first = grown(p.dist, n), grown(p.first, n)
	return p.dist, p.first
}

// fold fills p from t in one pass over its parent arcs: a node's route is
// its parent's plus one arc, so each is computed once.
func (p *paths) fold(s *snapshot, t tree, root int32) {
	const unknown = -2
	dist, first := p.size(len(s.start) - 1)
	for i := range dist {
		dist[i] = unknown
	}
	dist[root], first[root] = 0, noArc
	stack := p.stack[:0]
	for u := range dist {
		for v := int32(u); dist[v] == unknown; {
			up := s.toParent(t, v)
			if up == noArc {
				dist[v], first[v] = unreached, noArc
				break
			}
			stack = append(stack, v)
			v = s.arcs[up].to
		}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			up := s.toParent(t, v)
			a := &s.arcs[up]
			dist[v], first[v] = dist[a.to]+int32(a.delay), first[a.to]
			if a.to == root {
				first[v] = s.reverse(up)
			}
		}
	}
	p.stack = stack
}

// SourceTree is the shortest-path tree from one node over the topology of
// one instant, as the oracle's own solve settles it: the tree the node's
// route lookups read its first hops from, with each node's parent besides.
type SourceTree struct {
	snap *snapshot
	tree
}

// Tree solves the shortest-path tree from nd over the live topology. Nothing
// is memoised: a caller that keeps the tree drops it when a view's Gen moves.
func (o *Oracle) Tree(nd *netsim.Node) SourceTree {
	return SourceTree{o.snap, o.snap.solve(o.RouterFor(nd).(*view).id, &o.scratch.paths[0])}
}

// Parent returns the link by which the tree reaches nd: the parent's
// interface onto it and nd's own. ok is false at the root and at a node the
// tree does not reach. The parent is the relaxation that fixed nd's distance
// in solve, the same one that fixed its first hop: the parent's interface is
// that arc's, and nd's is its reverse's, nd's own arc to its parent.
func (t SourceTree) Parent(nd *netsim.Node) (out, in *netsim.Iface, ok bool) {
	up := t.snap.toParent(t.tree, int32(nd.ID))
	if up == noArc {
		return nil, nil, false
	}
	return t.snap.arcs[t.snap.reverse(up)].ifc, t.snap.arcs[up].ifc, true
}

// best resolves one /24 for src over the prefix's owners: the lowest
// metric, then the lower next hop; an interface of src's own in the prefix
// wins at metric 0. route gives an owner's distance from src (unreached if
// none) and the arc of src's its path leaves by. The zero Route means no
// route.
func (s *snapshot) best(src int32, owners []owner, route func(u int32) (int64, int32)) Route {
	best := Route{Metric: InfMetric}
	for _, own := range owners {
		var r Route
		if own.node == src {
			r = Route{Iface: own.ifc}
		} else if d, first := route(own.node); d != unreached {
			a := &s.arcs[first]
			r = Route{Iface: a.ifc, NextHop: a.hop, Metric: d}
		} else {
			continue
		}
		if r.Metric < best.Metric || (r.Metric == best.Metric && r.NextHop < best.NextHop) {
			best = r
		}
	}
	if best.Metric >= InfMetric {
		return Route{}
	}
	return best
}

// read is best's route over a fold or a solve's paths.
func (p *paths) read(u int32) (int64, int32) { return int64(p.dist[u]), p.first[u] }

// routesDiffer reports whether any prefix of either snapshot resolves
// differently for src in the two, given src's routes over each as paths,
// so that the comparison costs O(prefixes), not a climb per prefix. A
// prefix only b has resolves to no route in a.
func routesDiffer(src int32, a *snapshot, pa *paths, b *snapshot, pb *paths) bool {
	for key, owners := range a.owners {
		if a.best(src, owners, pa.read) != b.best(src, b.owners[key], pb.read) {
			return true
		}
	}
	for key, owners := range b.owners {
		if _, both := a.owners[key]; !both && b.best(src, owners, pb.read) != (Route{}) {
			return true
		}
	}
	return false
}

// view is one node's Router over the oracle. It memoises no answers: the
// rpf.Cache in front of it does.
type view struct {
	o         *Oracle
	id        int32
	listeners []func()
	tree      tree // nil until the first Lookup after a topology change
}

// Lookup resolves dst's /24 over the view's tree, solving it on first use.
// Solving is not a route change and leaves Gen alone.
func (v *view) Lookup(dst addr.IP) (Route, bool) {
	s := v.o.snap
	if v.tree == nil {
		v.tree = s.solve(v.id, &v.o.scratch.paths[0])
	}
	r := s.best(v.id, s.owners[uint32(dst)>>8], func(u int32) (int64, int32) { return s.climb(v.tree, v.id, u) })
	return r, r.Iface != nil
}

// OnChange registers a route-change listener.
func (v *view) OnChange(fn func()) { v.listeners = append(v.listeners, fn) }

// Gen counts topology changes; lookups and solves do not move it.
func (v *view) Gen() uint64 { return v.o.gen }
