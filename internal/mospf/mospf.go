// Package mospf implements the link-state multicast baseline (Moy's MOSPF,
// the paper's reference [3]): routers flood group-membership LSAs to every
// other router in the domain, and each router computes the shortest-path
// tree from a packet's source on demand with Dijkstra.
//
// The paper's §1.1 critique — "every router must receive and store
// membership information for every group in the domain" and "the processing
// cost of the Dijkstra shortest-path-tree calculations" — is what the
// comparison benchmarks measure here: LSA counts (metrics.CtrlLSA), stored
// membership per router, and SPF runs (metrics.SPFRuns).
//
// Substitution note (DESIGN.md §4): the router-link half of the link-state
// database every MOSPF router would hold identically is the unicast
// oracle's live graph, so a source's tree is the oracle's own shortest-path
// tree from the source and follows every link change; group membership,
// which is the scaling cost under study, travels as real flooded messages.
package mospf

import (
	"encoding/binary"
	"errors"
	"slices"

	"pim/internal/addr"
	"pim/internal/engine"
	"pim/internal/metrics"
	"pim/internal/mfib"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/telemetry"
	"pim/internal/unicast"
)

// Trees is the per-source tree cache the routers of one MOSPF domain share
// (the "forwarding cache" amortization MOSPF performs): the oracle's tree
// from each source node, dropped when a membership LSA arrives and when the
// oracle's topology moves.
type Trees struct {
	oracle *unicast.Oracle
	gen    uint64
	bySrc  map[*netsim.Node]*unicast.SourceTree
}

// NewTrees returns an empty cache over the oracle's link-state view.
func NewTrees(o *unicast.Oracle) *Trees {
	return &Trees{oracle: o, bySrc: map[*netsim.Node]*unicast.SourceTree{}}
}

// membershipLSA is the flooded group-membership advertisement:
//
//	uint32 origin (the router's Node.ID), uint32 seq, uint16 #groups, uint32 group...
type membershipLSA struct {
	Origin uint32
	Seq    uint32
	Groups []addr.IP
}

var errBadLSA = errors.New("mospf: malformed membership LSA")

func (m *membershipLSA) marshal() []byte { return m.marshalTo(make([]byte, 0, 10+4*len(m.Groups))) }

// marshalTo appends the encoded LSA to b (same bytes as marshal).
func (m *membershipLSA) marshalTo(b []byte) []byte {
	var hdr [10]byte
	binary.BigEndian.PutUint32(hdr[0:], m.Origin)
	binary.BigEndian.PutUint32(hdr[4:], m.Seq)
	binary.BigEndian.PutUint16(hdr[8:], uint16(len(m.Groups)))
	b = append(b, hdr[:]...)
	for _, g := range m.Groups {
		var e [4]byte
		binary.BigEndian.PutUint32(e[0:], uint32(g))
		b = append(b, e[:]...)
	}
	return b
}

// unmarshal decodes into m, reusing the capacity of m.Groups — a reused
// decode scratch makes warm LSA receives allocation-free.
func (m *membershipLSA) unmarshal(b []byte) error {
	if len(b) < 10 {
		return errBadLSA
	}
	m.Origin = binary.BigEndian.Uint32(b)
	m.Seq = binary.BigEndian.Uint32(b[4:])
	n := int(binary.BigEndian.Uint16(b[8:]))
	if len(b) < 10+4*n {
		return errBadLSA
	}
	m.Groups = m.Groups[:0]
	for i := 0; i < n; i++ {
		m.Groups = append(m.Groups, addr.IP(binary.BigEndian.Uint32(b[10+4*i:])))
	}
	return nil
}

// Router is one MOSPF router instance.
type Router struct {
	// Chassis carries the oracle's view of this router, whose Gen tells it
	// the topology moved. Its Telemetry bus, when non-nil, receives
	// LSA-flood, cache and lifecycle events; set it before Start.
	engine.Chassis
	MFIB *mfib.Table // (S,G) forwarding cache

	// RefreshInterval, when nonzero, re-originates this router's membership
	// LSA periodically. Base MOSPF floods only on change; periodic
	// re-origination is what lets the domain recover membership lost to a
	// crashed router or a partitioned flood, so the fault experiments enable
	// it. Zero (the default) keeps the event-driven-only behaviour — and the
	// LSA counts — of the existing overhead ledgers. Set before Start.
	RefreshInterval netsim.Time

	trees *Trees
	// gen is the topology generation MFIB was computed at.
	gen uint64
	// seq is this router's LSA sequence number. It survives Stop/Restart:
	// peers' databases never expire old sequence numbers, so an instance
	// restarting from zero would have its post-restart LSAs discarded as
	// stale forever.
	seq uint32
	// membership[origin] is the sorted, deduplicated group list of the
	// latest LSA of origin, a Node.ID: the domain-wide membership database
	// every router stores (the §1.1 scaling cost), this router's own row
	// included. Rows are owned copies, never an alias of the decode scratch
	// dec.Groups.
	membership map[uint32][]addr.IP
	seqs       map[uint32]uint32
	// local is IGMP-reported membership.
	local engine.Members

	// dec is the reusable LSA decode scratch (DESIGN.md §13), valid only
	// within one handleLSA call.
	dec membershipLSA
}

// New builds an MOSPF router reading its source trees from the shared cache.
func New(nd *netsim.Node, t *Trees) *Router {
	r := &Router{Chassis: engine.NewChassis(nd, t.oracle.RouterFor(nd), nil), trees: t}
	r.MFIB = r.NewMFIB()
	r.reset()
	r.Handle(packet.ProtoMOSPF, r.handleLSA)
	r.Handle(packet.ProtoUDP, r.handleData)
	return r
}

// Start registers handlers and, when RefreshInterval is set, begins
// periodic LSA re-origination.
func (r *Router) Start() {
	r.Chassis.Start(r.StateCount(), func() {
		if r.RefreshInterval > 0 {
			r.Every(0, r.RefreshInterval, r.originate)
		}
	})
}

// Stop detaches the router and discards its soft state: the forwarding
// cache, the stored domain-wide membership database, peer sequence numbers,
// and local membership. The router's own LSA sequence number is kept (see
// its field comment).
func (r *Router) Stop() { r.Chassis.Stop(0, r.reset) }

func (r *Router) reset() {
	r.MFIB.Clear()
	r.gen = r.Unicast.Gen()
	r.membership = map[uint32][]addr.IP{}
	r.seqs = map[uint32]uint32{}
	r.local.Reset()
}

// Restart brings a stopped router back empty; with RefreshInterval set the
// domain's databases reconverge from periodic re-origination.
func (r *Router) Restart() {
	r.Stop()
	r.Start()
}

// StateCount returns forwarding cache entries plus stored membership rows —
// both components of MOSPF's per-router state.
func (r *Router) StateCount() int { return r.MFIB.Len() + r.MembershipRows() }

// MembershipRows returns only the stored foreign-membership count.
func (r *Router) MembershipRows() int {
	n := 0
	for _, groups := range r.membership {
		n += len(groups)
	}
	return n
}

// --- Membership flooding ---

// LocalJoin records a member and floods an updated membership LSA.
func (r *Router) LocalJoin(ifc *netsim.Iface, g addr.IP) {
	r.local.Add(ifc.Index, g)
	r.originate()
}

// LocalLeave removes a member and floods.
func (r *Router) LocalLeave(ifc *netsim.Iface, g addr.IP) {
	r.local.Remove(ifc.Index, g)
	r.originate()
}

func (r *Router) originate() {
	r.seq++
	lsa := &membershipLSA{Origin: uint32(r.Node.ID), Seq: r.seq, Groups: r.local.Groups(nil)}
	r.install(lsa)
	r.flood(lsa, nil)
}

func (r *Router) handleLSA(in *netsim.Iface, pkt *packet.Packet) {
	lsa := &r.dec
	if err := lsa.unmarshal(pkt.Payload); err != nil {
		return
	}
	if lsa.Origin == uint32(r.Node.ID) {
		return
	}
	if cur, ok := r.seqs[lsa.Origin]; ok && int32(lsa.Seq-cur) <= 0 {
		return
	}
	r.install(lsa)
	r.flood(lsa, in)
}

func (r *Router) install(lsa *membershipLSA) {
	r.seqs[lsa.Origin] = lsa.Seq
	row := append(r.membership[lsa.Origin][:0], lsa.Groups...)
	slices.Sort(row)
	r.membership[lsa.Origin] = slices.Compact(row)
	// Membership changed: drop the (S,G) entries, recomputed on the next
	// data packet, and the domain's source trees with them.
	r.flush()
	clear(r.trees.bySrc)
}

// flush drops every (S,G) entry.
func (r *Router) flush() {
	if r.Telemetry != nil {
		r.MFIB.ForEach(func(e *mfib.Entry) {
			r.Pub(telemetry.EntryExpire, -1, e.Key.Source, e.Key.Group, telemetry.EntrySG)
		})
	}
	r.MFIB.Clear()
}

func (r *Router) flood(lsa *membershipLSA, except *netsim.Iface) {
	r.Enc.Buf = lsa.marshalTo(r.Enc.Buf[:0])
	for _, ifc := range r.Node.Ifaces {
		if ifc == except || !ifc.Up() || ifc.Addr == 0 {
			continue
		}
		r.Node.Send(ifc, r.Enc.Packet(ifc.Addr, addr.AllRouters, packet.ProtoMOSPF, 1), 0)
		r.Metrics.Inc(metrics.CtrlLSA)
		r.Pub(telemetry.LSAFlood, ifc.Index, 0, 0, int64(len(lsa.Groups)))
	}
}

// memberRouters returns the origins, Node.IDs, with members of g per the
// flooded database, in order.
func (r *Router) memberRouters(g addr.IP) []int {
	var out []int
	for origin, groups := range r.membership {
		if _, ok := slices.BinarySearch(groups, g); ok {
			out = append(out, int(origin))
		}
	}
	slices.Sort(out)
	return out
}

// --- Data plane: on-demand SPT computation (§1.1) ---

func (r *Router) handleData(in *netsim.Iface, pkt *packet.Packet) {
	g := pkt.Dst
	if !g.IsMulticast() || g.IsLinkLocalMulticast() {
		return
	}
	if gen := r.Unicast.Gen(); gen != r.gen {
		// The topology moved: every entry may name a dead link.
		r.gen = gen
		r.flush()
	}
	s := pkt.Src
	e := r.MFIB.SG(s, g)
	if e == nil {
		e = r.computeEntry(s, g)
		if e == nil {
			r.Metrics.Inc(metrics.DataNoState)
			r.Pub(telemetry.NoState, in.Index, s, g, 0)
			return
		}
	}
	if e.IIF != nil && in != e.IIF {
		r.Metrics.Inc(metrics.DataDropped)
		r.Pub(telemetry.RPFDrop, in.Index, s, g, 0)
		return
	}
	fwd, ok := pkt.Forwarded()
	if !ok {
		return
	}
	r.Fanout = e.AppendLiveOIFs(r.Fanout[:0], r.Now(), in)
	for _, out := range r.Fanout {
		r.Forward(out, fwd, 0, s, 0)
	}
}

// computeEntry derives this router's (S,G) forwarding cache entry from the
// shortest-path tree rooted at the source itself, so the first-hop router's
// incoming interface is the source's LAN. The router is on the tree when a
// member's path climbs through it; its children are the nodes it climbs
// from.
func (r *Router) computeEntry(s, g addr.IP) *mfib.Entry {
	src := r.Node.Net.IfaceByAddr(s)
	if src == nil {
		return nil
	}
	// An entry with no members is a negative cache: each packet does not
	// recompute.
	e, created := r.MFIB.Upsert(mfib.Key{Source: s, Group: g}, r.Now())
	if created {
		r.Pub(telemetry.EntryCreate, -1, s, g, telemetry.EntrySG)
	}
	members := r.memberRouters(g)
	if len(members) == 0 {
		return e
	}
	tree := r.tree(src.Node)
	onTree := false
	nodes := r.Node.Net.Nodes
	for _, m := range members {
		if m >= len(nodes) {
			continue // an origin no node answers to
		}
		u := nodes[m]
		for u != r.Node {
			out, _, ok := tree.Parent(u)
			if !ok {
				break
			}
			if out.Node == r.Node {
				e.AddOIF(out, engine.Forever)
			}
			u = out.Node
		}
		onTree = onTree || u == r.Node
	}
	if !onTree {
		return e // off-tree: entry with no oifs (packets dropped cheaply)
	}
	if _, in, ok := tree.Parent(r.Node); ok {
		e.IIF = in
	}
	// Local member LANs.
	for _, ifc := range r.Node.Ifaces {
		if r.local.Has(ifc.Index, g) {
			e.AddLocalOIF(ifc)
		}
	}
	return e
}

// tree returns the domain's tree from src, solving it — one SPF run — when
// the cache lacks it or holds trees of an older topology.
func (r *Router) tree(src *netsim.Node) *unicast.SourceTree {
	t := r.trees
	if t.gen != r.gen {
		clear(t.bySrc)
		t.gen = r.gen
	}
	if t.bySrc[src] == nil {
		st := t.oracle.Tree(src)
		t.bySrc[src] = &st
		r.Metrics.Inc(metrics.SPFRuns)
	}
	return t.bySrc[src]
}
