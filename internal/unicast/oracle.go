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
// after that runs one Dijkstra from the node over the snapshot; each
// destination /24 is then resolved once and memoised. The routes, and the
// OnChange firings, are exactly those of computing every table on every link
// change: oracle_ref_test.go keeps that implementation as the reference.
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
		o.views = append(o.views, &view{o: o, id: int32(nd.ID), memo: map[uint32]Route{}})
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
		clear(v.memo)
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
	from  int32 // local Node.ID
	delay int64
	ifc   *netsim.Iface // local interface
	hop   addr.IP       // peer's address
}

// owner is one up, addressed interface inside a /24.
type owner struct {
	node int32
	ifc  *netsim.Iface
}

// snapshot is the live graph at one link state, shared read-only by all
// views. Node v's arcs are arcs[start[v]:start[v+1]], in Ifaces ×
// Link.Ifaces order over up interfaces; owners lists each /24's interfaces
// in Nodes × Ifaces order, keyed by the prefix's top 24 bits (every oracle
// prefix is a LinkPrefix, so longest-prefix match is exact match on those).
type snapshot struct {
	up     []bool
	start  []int32
	arcs   []arc
	owners map[uint32][]owner
	// scratch is the building oracle's; a snapshot built bare gets its own
	// on its first solve.
	scratch *solveScratch
}

// solveScratch is what a solve needs besides the tree it returns.
type solveScratch struct {
	queue distQueue
	// beyond collects nodes offered only distances over MaxPathMetric;
	// one still unreached at the end has no path that fits.
	beyond []int32
	// paths hold the routes of two trees: a solve fills one, and Recompute
	// compares a view's old routes, solved or folded, with its new.
	paths [2]paths
}

func (o *Oracle) snapshot(up []bool) *snapshot {
	s := &snapshot{up: up, start: make([]int32, 0, len(o.net.Nodes)+1), owners: map[uint32][]owner{}, scratch: &o.scratch}
	for _, nd := range o.net.Nodes {
		s.start = append(s.start, int32(len(s.arcs)))
		for _, ifc := range nd.Ifaces {
			if !ifc.Up() {
				continue
			}
			if ifc.Addr != 0 {
				key := uint32(ifc.Addr) >> 8
				s.owners[key] = append(s.owners[key], owner{int32(nd.ID), ifc})
			}
			for _, peer := range ifc.Link.Ifaces {
				if peer != ifc && peer.Up() {
					s.arcs = append(s.arcs, arc{int32(peer.Node.ID), int32(nd.ID), int64(ifc.Link.Delay), ifc, peer.Addr})
				}
			}
		}
	}
	s.start = append(s.start, int32(len(s.arcs)))
	return s
}

// tree is one node's shortest-path tree over a snapshot, four bytes per node
// of the network (every router that looks anything up holds one): the index
// in snapshot.arcs of the arc that fixed each node's distance in solve, noArc
// at the root and at a node the tree does not reach. A node's distance and
// first hop are a climb up its parent arcs.
type tree []int32

const (
	unreached = -1
	noArc     = -1
)

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
	t := make(tree, n)
	dist, first := p.size(n)
	for i := range t {
		dist[i], first[i], t[i] = unreached, noArc, noArc
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
				dist[u], t[u], first[u] = nd, a, fv
				if v == src {
					first[u] = a
				}
				q.push(distKey(nd, u))
			case nd == old && v == src && arc.hop < s.arcs[t[u]].hop:
				t[u], first[u] = a, a
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

// climb walks u's parent arcs up to root: u's distance from it in µs
// (unreached if the tree does not reach u) and the root's arc the path
// leaves by (noArc at the root). Each step adds the delay that fixed the
// child's distance in solve, so the sum is that distance.
func (s *snapshot) climb(t tree, root, u int32) (dist int64, first int32) {
	if u != root && t[u] == noArc {
		return unreached, noArc
	}
	for first = noArc; u != root; u = s.arcs[first].from {
		first = t[u]
		dist += s.arcs[first].delay
	}
	return dist, first
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
	p.dist, p.first = slices.Grow(p.dist[:0], n)[:n], slices.Grow(p.first[:0], n)[:n]
	return p.dist, p.first
}

// fold fills p from t in one pass over its parent arcs: a node's route is
// its parent's plus one arc, so each is computed once.
func (p *paths) fold(s *snapshot, t tree, root int32) {
	const unknown = -2
	dist, first := p.size(len(t))
	for i := range dist {
		dist[i] = unknown
	}
	dist[root], first[root] = 0, noArc
	stack := p.stack[:0]
	for u := range t {
		for v := int32(u); dist[v] == unknown; v = s.arcs[t[v]].from {
			if t[v] == noArc {
				dist[v], first[v] = unreached, noArc
				break
			}
			stack = append(stack, v)
		}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			a := &s.arcs[t[v]]
			dist[v], first[v] = dist[a.from]+int32(a.delay), first[a.from]
			if a.from == root {
				first[v] = t[v]
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
// in solve, the same one that fixed its first hop.
func (t SourceTree) Parent(nd *netsim.Node) (out, in *netsim.Iface, ok bool) {
	a := t.tree[nd.ID]
	if a == noArc {
		return nil, nil, false
	}
	via := &t.snap.arcs[a]
	for _, in := range via.ifc.Link.Ifaces {
		if in.Node == nd {
			return via.ifc, in, true
		}
	}
	panic("unicast: a tree arc without its far end")
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

// view is one node's Router over the oracle.
type view struct {
	o         *Oracle
	id        int32
	listeners []func()
	tree      tree             // nil until the first Lookup after a topology change
	memo      map[uint32]Route // /24 key → best's answer, reachable or not
}

// Lookup resolves dst's /24, solving and memoising on first use. Filling the
// memo is not a route change and leaves Gen alone.
func (v *view) Lookup(dst addr.IP) (Route, bool) {
	key := uint32(dst) >> 8
	r, hit := v.memo[key]
	if !hit {
		s := v.o.snap
		if v.tree == nil {
			v.tree = s.solve(v.id, &v.o.scratch.paths[0])
		}
		r = s.best(v.id, s.owners[key], func(u int32) (int64, int32) { return s.climb(v.tree, v.id, u) })
		v.memo[key] = r
	}
	return r, r.Iface != nil
}

// OnChange registers a route-change listener.
func (v *view) OnChange(fn func()) { v.listeners = append(v.listeners, fn) }

// Gen counts topology changes; memo fills do not move it.
func (v *view) Gen() uint64 { return v.o.gen }

// Len returns the number of destinations resolved since the last topology
// change — what this node's table currently holds.
func (v *view) Len() int { return len(v.memo) }
