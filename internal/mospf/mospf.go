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
// Substitution note (DESIGN.md §4): unicast topology is shared through a
// Domain object rather than re-flooded, standing in for the identical OSPF
// link-state databases every MOSPF router would hold; group membership,
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
	"pim/internal/topology"
	"pim/internal/unicast"
)

// Domain is the topology view shared by all routers in one MOSPF domain:
// the router-level graph and the interface realizing each graph edge.
type Domain struct {
	Routers []*netsim.Node
	index   map[*netsim.Node]int
	Graph   *topology.Graph
	// edgeIfaces[e] are the two interfaces of graph edge e, ordered (A,B).
	edgeIfaces [][2]*netsim.Iface
	// sp caches per-source Dijkstra results (the "forwarding cache"
	// amortization MOSPF performs); invalidated on membership change.
	sp map[int]*topology.ShortestPaths
	// solver holds the reusable Dijkstra scratch buffers shared by every
	// SPF run in the domain — membership churn triggers recomputation for
	// each active source, and refilling warm buffers beats reallocating
	// heap and distance arrays per run.
	solver *topology.SPSolver
}

// NewDomain derives the router graph from the live links joining the given
// routers.
func NewDomain(routers []*netsim.Node) *Domain {
	d := &Domain{Routers: routers, index: map[*netsim.Node]int{}}
	for i, nd := range routers {
		d.index[nd] = i
	}
	d.Graph = topology.New(len(routers))
	seen := map[*netsim.Link]bool{}
	for i, nd := range routers {
		for _, ifc := range nd.Ifaces {
			l := ifc.Link
			if l == nil || seen[l] {
				continue
			}
			for _, peer := range l.Ifaces {
				j, ok := d.index[peer.Node]
				if !ok || peer.Node == nd || j < i {
					continue
				}
				e := d.Graph.AddEdge(i, j, int64(l.Delay))
				d.edgeIfaces = append(d.edgeIfaces, [2]*netsim.Iface{ifc, peer})
				_ = e
			}
			seen[l] = true
		}
	}
	d.sp = map[int]*topology.ShortestPaths{}
	d.solver = d.Graph.NewSolver()
	return d
}

// RouterFor locates the router whose connected subnet contains ip, or -1.
func (d *Domain) RouterFor(ip addr.IP) int {
	for i, nd := range d.Routers {
		for _, ifc := range nd.Ifaces {
			if ifc.Addr != 0 && unicast.LinkPrefix(ifc.Addr).Contains(ip) {
				return i
			}
		}
	}
	return -1
}

// ifaceOnEdge returns router r's interface on graph edge e.
func (d *Domain) ifaceOnEdge(r, e int) *netsim.Iface {
	pair := d.edgeIfaces[e]
	if d.index[pair[0].Node] == r {
		return pair[0]
	}
	return pair[1]
}

// membershipLSA is the flooded group-membership advertisement:
//
//	uint32 origin (router index), uint32 seq, uint16 #groups, uint32 group...
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
	// Chassis carries no unicast view (the Domain stands in for it). Its
	// Telemetry bus, when non-nil, receives LSA-flood, cache and lifecycle
	// events; set it before Start.
	engine.Chassis
	Domain *Domain
	MFIB   *mfib.Table // (S,G) forwarding cache

	// RefreshInterval, when nonzero, re-originates this router's membership
	// LSA periodically. Base MOSPF floods only on change; periodic
	// re-origination is what lets the domain recover membership lost to a
	// crashed router or a partitioned flood, so the fault experiments enable
	// it. Zero (the default) keeps the event-driven-only behaviour — and the
	// LSA counts — of the existing overhead ledgers. Set before Start.
	RefreshInterval netsim.Time

	self int // index in the domain
	// seq is this router's LSA sequence number. It survives Stop/Restart:
	// peers' databases never expire old sequence numbers, so an instance
	// restarting from zero would have its post-restart LSAs discarded as
	// stale forever.
	seq uint32
	// membership[origin] is the sorted, deduplicated group list of origin's
	// latest LSA: the domain-wide membership database every router stores
	// (the §1.1 scaling cost). Rows are owned copies, never an alias of the
	// decode scratch dec.Groups.
	membership map[uint32][]addr.IP
	seqs       map[uint32]uint32
	// local is IGMP-reported membership.
	local engine.Members

	// dec is the reusable LSA decode scratch (DESIGN.md §13), valid only
	// within one handleLSA call.
	dec membershipLSA
}

// New builds an MOSPF router within a domain.
func New(nd *netsim.Node, d *Domain) *Router {
	r := &Router{Chassis: engine.NewChassis(nd, nil, nil), Domain: d, self: d.index[nd]}
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
// its field comment). The shared Domain Dijkstra cache is also dropped so
// no tree computed with the dead router's membership view survives.
func (r *Router) Stop() { r.Chassis.Stop(0, r.reset) }

func (r *Router) reset() {
	r.MFIB = mfib.NewTable()
	r.membership = map[uint32][]addr.IP{}
	r.seqs = map[uint32]uint32{}
	r.local.Reset()
	r.Domain.sp = map[int]*topology.ShortestPaths{}
}

// Restart brings a stopped router back empty; with RefreshInterval set the
// domain's databases reconverge from periodic re-origination.
func (r *Router) Restart() {
	r.Stop()
	r.Start()
}

// StateCount returns forwarding cache entries plus stored membership rows —
// both components of MOSPF's per-router state.
func (r *Router) StateCount() int {
	n := r.MFIB.Len()
	for _, groups := range r.membership {
		n += len(groups)
	}
	return n
}

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
	lsa := &membershipLSA{Origin: uint32(r.self), Seq: r.seq, Groups: r.local.Groups(nil)}
	r.install(lsa)
	r.flood(lsa, nil)
}

func (r *Router) handleLSA(in *netsim.Iface, pkt *packet.Packet) {
	lsa := &r.dec
	if err := lsa.unmarshal(pkt.Payload); err != nil {
		return
	}
	if lsa.Origin == uint32(r.self) {
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
	// Membership changed: drop cached trees (they will be recomputed on
	// the next data packet) and any shared Dijkstra cache.
	if r.Telemetry != nil {
		r.MFIB.ForEach(func(e *mfib.Entry) {
			r.Pub(telemetry.EntryExpire, -1, e.Key.Source, e.Key.Group, telemetry.EntrySG)
		})
	}
	r.MFIB = mfib.NewTable()
	r.Domain.sp = map[int]*topology.ShortestPaths{}
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

// memberRouters returns the domain routers with members of g (per the
// flooded database plus local knowledge).
func (r *Router) memberRouters(g addr.IP) []int {
	var out []int
	for origin, groups := range r.membership {
		if _, ok := slices.BinarySearch(groups, g); ok {
			out = append(out, int(origin))
		}
	}
	if r.local.Any(g) && !slices.Contains(out, r.self) {
		out = append(out, r.self)
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
	srcLocal := in.Addr != 0 && unicast.LinkPrefix(in.Addr).Contains(s)
	if e.IIF != nil && in != e.IIF && !srcLocal {
		r.Metrics.Inc(metrics.DataDropped)
		r.Pub(telemetry.RPFDrop, in.Index, s, g, 0)
		return
	}
	fwd, ok := pkt.Forwarded()
	if !ok {
		return
	}
	for _, out := range e.ForwardOIFs(r.Now(), in) {
		r.Forward(out, fwd, 0, s, 0)
	}
}

// computeEntry runs (or reuses) the source-rooted Dijkstra and derives this
// router's (S,G) forwarding cache entry.
func (r *Router) computeEntry(s, g addr.IP) *mfib.Entry {
	src := r.Domain.RouterFor(s)
	if src < 0 {
		return nil
	}
	members := r.memberRouters(g)
	if len(members) == 0 {
		// Negative cache: remember that this source/group pair has no
		// members so each packet does not recompute.
		return r.upsert(s, g)
	}
	sp := r.Domain.sp[src]
	if sp == nil {
		sp = r.Domain.solver.Solve(src)
		r.Domain.sp[src] = sp
		r.Metrics.Inc(metrics.SPFRuns)
	}
	tree := r.Domain.Graph.SPTreeFromSP(sp, members)
	e := r.upsert(s, g)
	if !tree.InTree[r.self] {
		return e // off-tree: entry with no oifs (packets dropped cheaply)
	}
	if pe := tree.ParentEdge[r.self]; pe >= 0 {
		e.IIF = r.Domain.ifaceOnEdge(r.self, pe)
		e.Touch()
	}
	// Children: tree nodes whose parent is self.
	for v := 0; v < r.Domain.Graph.N(); v++ {
		if tree.InTree[v] && tree.Parent[v] == r.self {
			e.AddOIF(r.Domain.ifaceOnEdge(r.self, tree.ParentEdge[v]), engine.Forever)
		}
	}
	// Local member LANs.
	for _, ifc := range r.Node.Ifaces {
		if r.local.Has(ifc.Index, g) {
			e.AddLocalOIF(ifc)
		}
	}
	return e
}

// upsert installs the (s,g) cache entry, publishing EntryCreate when new.
func (r *Router) upsert(s, g addr.IP) *mfib.Entry {
	e, created := r.MFIB.Upsert(mfib.Key{Source: s, Group: g}, r.Now())
	if created {
		r.Pub(telemetry.EntryCreate, -1, s, g, telemetry.EntrySG)
	}
	return e
}
