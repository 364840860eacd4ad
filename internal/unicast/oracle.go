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
	// scratch is every snapshot's solve workspace: one queue and one
	// beyond list, reused by every solve this oracle runs.
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
func (o *Oracle) Solved(nd *netsim.Node) bool { return o.RouterFor(nd).(*view).tree.dist != nil }

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
	for _, v := range o.views {
		was := v.tree
		v.tree = tree{}
		clear(v.memo)
		if len(v.listeners) == 0 {
			continue
		}
		if was.dist == nil {
			was = old.solve(v.id)
		}
		v.tree = o.snap.solve(v.id)
		if routesDiffer(v.id, old, was, o.snap, v.tree) {
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
					s.arcs = append(s.arcs, arc{int32(peer.Node.ID), int64(ifc.Link.Delay), ifc, peer.Addr})
				}
			}
		}
	}
	s.start = append(s.start, int32(len(s.arcs)))
	return s
}

// tree is one node's shortest-path tree over a snapshot, six bytes per node
// of the network (every router that looks anything up holds one): each
// node's distance from the source in µs (unreached if there is no path), and
// which of the source's own arcs its path starts on, as an offset from the
// source's first arc. MaxPathMetric and MaxArcs are the bounds the two cells
// hold; solve refuses a graph beyond either rather than wrap.
type tree struct {
	dist  []int32
	first []uint16
}

const unreached = -1

// MaxPathMetric is the longest shortest path the oracle can hold, in µs
// (about 35.8 simulated minutes): a tree keeps distances in 32 bits.
const MaxPathMetric = math.MaxInt32

// MaxArcs is the most adjacencies (one per peer interface on each up link)
// a node can have under the oracle: a tree names a first hop by its 16-bit
// offset among the source's arcs.
const MaxArcs = math.MaxUint16

// solve runs Dijkstra from src in the snapshot's scratch, allocating only
// the tree it returns. Ties are everywhere with small integer delays, and
// which equal-cost first hop wins is source-relative: nodes settle in
// (distance, ID) order, a node keeps the first relaxation that reached its
// final distance, and between the source's own arcs to one neighbour the
// lower peer address wins. A tree toward the destination, or a different
// settling order, picks other next hops.
//
// It panics when src has more than MaxArcs arcs or a node's distance exceeds
// MaxPathMetric; scenario.CheckGraph refuses the graphs that could.
func (s *snapshot) solve(src int32) tree {
	n := len(s.start) - 1
	base := s.start[src]
	if arcs := s.start[src+1] - base; arcs > MaxArcs {
		panic(fmt.Sprintf("unicast: node %d has %d arcs, beyond the oracle's %d", src, arcs, MaxArcs))
	}
	t := tree{dist: make([]int32, n), first: make([]uint16, n)}
	for i := range t.dist {
		t.dist[i] = unreached
	}
	t.dist[src] = 0
	if s.scratch == nil {
		s.scratch = new(solveScratch)
	}
	q, beyond := &s.scratch.queue, s.scratch.beyond[:0]
	q.reset()
	q.push(distKey(0, src))
	dist, first := t.dist, t.first
	for q.len() > 0 {
		k := q.pop()
		d, v := int32(k>>32), int32(uint32(k))
		if d > dist[v] {
			continue // v settled at a shorter distance pushed later
		}
		// a is the arc's offset among v's, which names a first hop when v is
		// the source.
		arcs, room, fv := s.arcs[s.start[v]:s.start[v+1]], MaxPathMetric-int64(d), first[v]
		for a := range arcs {
			arc := &arcs[a]
			u := arc.to
			if arc.delay > room {
				beyond = append(beyond, u)
				continue
			}
			nd := d + int32(arc.delay)
			switch old := dist[u]; {
			case old == unreached || nd < old:
				dist[u] = nd
				if v == src {
					first[u] = uint16(a)
				} else {
					first[u] = fv
				}
				q.push(distKey(nd, u))
			case nd == old && v == src && arc.hop < arcs[first[u]].hop:
				first[u] = uint16(a)
			}
		}
	}
	s.scratch.beyond = beyond
	for _, u := range beyond {
		if t.dist[u] == unreached {
			panic(fmt.Sprintf("unicast: node %d is farther than %d µs from node %d, beyond the oracle's path metric bound", u, MaxPathMetric, src))
		}
	}
	return t
}

// SourceTree is the shortest-path tree from one node over the topology of
// one instant, as the oracle's own solve settles it: the tree the node's
// route lookups read its first hops from, with each node's parent besides.
type SourceTree struct {
	snap *snapshot
	tree // the root is the one node at distance 0
}

// Tree solves the shortest-path tree from nd over the live topology. Nothing
// is memoised: a caller that keeps the tree drops it when a view's Gen moves.
func (o *Oracle) Tree(nd *netsim.Node) SourceTree {
	return SourceTree{o.snap, o.snap.solve(o.RouterFor(nd).(*view).id)}
}

// Parent returns the link by which the tree reaches nd: the parent's
// interface onto it and nd's own. ok is false at the root and at a node the
// tree does not reach.
//
// The parent is the relaxation that fixed nd's distance in solve, the same
// one that fixed its first hop: of the tight predecessors — a neighbour p
// with dist[p] + delay = dist[nd] — the one that settled first, least in
// (distance, ID), over its first tight arc in its own arc order; at the root,
// over the tight arc to the lower peer address.
func (t SourceTree) Parent(nd *netsim.Node) (out, in *netsim.Iface, ok bool) {
	s, u, du := t.snap, int32(nd.ID), t.dist[nd.ID]
	if du == 0 || du == unreached {
		return nil, nil, false
	}
	p := int32(-1) // arcs are symmetric: u's own name its neighbours, all reached
	for _, a := range s.arcs[s.start[u]:s.start[u+1]] {
		if dp := t.dist[a.to]; int64(dp)+a.delay == int64(du) && (p < 0 || distKey(dp, a.to) < distKey(t.dist[p], p)) {
			p = a.to
		}
	}
	var via *arc
	for i := s.start[p]; i < s.start[p+1]; i++ {
		if a := &s.arcs[i]; a.to == u && int64(t.dist[p])+a.delay == int64(du) && (via == nil || t.dist[p] == 0 && a.hop < via.hop) {
			via = a
		}
	}
	for _, in := range via.ifc.Link.Ifaces {
		if in.Node == nd {
			return via.ifc, in, true
		}
	}
	panic("unicast: a tree arc without its far end")
}

// best resolves one /24 for src: the lowest metric over the prefix's owners,
// then the lower next hop; an interface of src's own in the prefix wins at
// metric 0. The zero Route means no route.
func (s *snapshot) best(src int32, t tree, key uint32) Route {
	best := Route{Metric: InfMetric}
	for _, own := range s.owners[key] {
		var r Route
		if own.node == src {
			r = Route{Iface: own.ifc}
		} else if d := t.dist[own.node]; d != unreached {
			a := &s.arcs[s.start[src]+int32(t.first[own.node])]
			r = Route{Iface: a.ifc, NextHop: a.hop, Metric: int64(d)}
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

// routesDiffer reports whether any prefix of either snapshot resolves
// differently for src in the two.
func routesDiffer(src int32, a *snapshot, at tree, b *snapshot, bt tree) bool {
	for _, s := range [2]*snapshot{a, b} {
		for key := range s.owners {
			if a.best(src, at, key) != b.best(src, bt, key) {
				return true
			}
		}
	}
	return false
}

// view is one node's Router over the oracle.
type view struct {
	o         *Oracle
	id        int32
	listeners []func()
	tree      tree             // zero until the first Lookup after a topology change
	memo      map[uint32]Route // /24 key → best's answer, reachable or not
}

// Lookup resolves dst's /24, solving and memoising on first use. Filling the
// memo is not a route change and leaves Gen alone.
func (v *view) Lookup(dst addr.IP) (Route, bool) {
	key := uint32(dst) >> 8
	r, hit := v.memo[key]
	if !hit {
		if v.tree.dist == nil {
			v.tree = v.o.snap.solve(v.id)
		}
		r = v.o.snap.best(v.id, v.tree, key)
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
