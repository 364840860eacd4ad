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
}

func (o *Oracle) snapshot(up []bool) *snapshot {
	s := &snapshot{up: up, start: make([]int32, 0, len(o.net.Nodes)+1), owners: map[uint32][]owner{}}
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

// solve runs Dijkstra from src. Ties are everywhere with small integer
// delays, and which equal-cost first hop wins is source-relative: nodes
// settle in (distance, ID) order, a node keeps the first relaxation that
// reached its final distance, and between the source's own arcs to one
// neighbour the lower peer address wins. A tree toward the destination, or a
// different settling order, picks other next hops.
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
	// beyond collects nodes offered only distances over MaxPathMetric so
	// far; one of them still unreached at the end has no path that fits.
	var beyond []int32
	h := distHeap{{0, src}}
	for len(h) > 0 {
		it := h.pop()
		v := it.node
		if it.dist > t.dist[v] {
			continue // v settled at a shorter distance pushed later
		}
		for a := s.start[v]; a < s.start[v+1]; a++ {
			arc := &s.arcs[a]
			u := arc.to
			if arc.delay > MaxPathMetric-int64(it.dist) {
				beyond = append(beyond, u)
				continue
			}
			nd := it.dist + int32(arc.delay)
			switch old := t.dist[u]; {
			case old == unreached || nd < old:
				t.dist[u] = nd
				if v == src {
					t.first[u] = uint16(a - base)
				} else {
					t.first[u] = t.first[v]
				}
				h.push(distItem{nd, u})
			case nd == old && v == src && arc.hop < s.arcs[base+int32(t.first[u])].hop:
				t.first[u] = uint16(a - base)
			}
		}
	}
	for _, u := range beyond {
		if t.dist[u] == unreached {
			panic(fmt.Sprintf("unicast: node %d is farther than %d µs from node %d, beyond the oracle's path metric bound", u, MaxPathMetric, src))
		}
	}
	return t
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

// distItem is a Dijkstra work item; distHeap a binary min-heap of them
// ordered by (dist, node), a total order, so the settling sequence does not
// depend on the heap's internals.
type distItem struct {
	dist int32
	node int32
}

type distHeap []distItem

func (a distItem) less(b distItem) bool {
	return a.dist < b.dist || (a.dist == b.dist && a.node < b.node)
}

func (h *distHeap) push(it distItem) {
	q := append(*h, it)
	*h = q
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].less(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *distHeap) pop() distItem {
	q := *h
	top, n := q[0], len(q)-1
	q[0] = q[n]
	q = q[:n]
	*h = q
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].less(q[c]) {
			c++
		}
		if !q[c].less(q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	return top
}
