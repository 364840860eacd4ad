package unicast

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"

	"pim/internal/addr"
	"pim/internal/netsim"
	"pim/internal/packet"
)

// LS is an OSPF-like link-state unicast routing process: each router floods
// a sequence-numbered LSA naming its live interface pairs and attached
// prefixes, keeps a database of everyone's LSAs, and runs SPF over it with
// the oracle's own snapshot, solve and best (DESIGN.md §18). Its converged
// tables are therefore the oracle's, route for route, ties included.
// MOSPF is this machinery plus membership LSAs; internal/mospf reads its
// router-link half from the Oracle, which stands for a database that
// converged the instant a link changed.
//
// Its timers are plain scheduler callbacks outside any chassis, so LS has
// no crash or restart of its own (DESIGN.md §9).
type LS struct {
	Node *netsim.Node
	// RefreshPeriod re-originates our LSA; foreign LSAs age out after
	// 3×RefreshPeriod.
	RefreshPeriod netsim.Time

	table *Table
	id    addr.IP // router ID = primary interface address
	seq   uint32
	db    map[addr.IP]*lsaRecord

	// spf's workspace, reused by every run: the database as a live rule,
	// the snapshot it admits with the solve's scratch, and the table's
	// next entries.
	rule    lsaRule
	snap    snapshot
	scratch solveScratch
	entries map[addr.Prefix]Route
	spfRuns int // SPFs run, for tests
}

type lsaRecord struct {
	lsa      lsa
	received netsim.Time
}

// LSDefaultRefresh is the LSA refresh interval.
const LSDefaultRefresh = 30 * netsim.Second

// NewLS attaches a link-state routing process to a node.
func NewLS(nd *netsim.Node) *LS {
	l := &LS{Node: nd, RefreshPeriod: LSDefaultRefresh, table: &Table{}, db: map[addr.IP]*lsaRecord{}, entries: map[addr.Prefix]Route{}}
	l.snap = snapshot{owners: map[uint32][]owner{}, scratch: &l.scratch}
	return l
}

// Table exposes the node's routing table (implements Router).
func (l *LS) Table() *Table { return l.table }

// Start begins LSA origination and flooding.
func (l *LS) Start() {
	l.id = l.Node.Addr()
	l.Node.Handle(packet.ProtoLSSim, netsim.HandlerFunc(l.handle))
	l.Node.OnLinkChange(func(*netsim.Iface) { l.originate() })
	sched := l.Node.Sched()
	var tick func()
	tick = func() {
		l.ageOut()
		l.originate()
		sched.After(l.RefreshPeriod, tick)
	}
	sched.After(0, tick)
}

// originate builds our LSA from live interface pairs and floods it.
func (l *LS) originate() {
	l.seq++
	a := lsa{Origin: l.id, Seq: l.seq}
	for _, ifc := range l.Node.Ifaces {
		if !ifc.Up() || ifc.Addr == 0 {
			continue
		}
		a.Prefixes = append(a.Prefixes, LinkPrefix(ifc.Addr))
		for _, peer := range ifc.Link.Ifaces {
			if peer == ifc || !peer.Up() {
				continue
			}
			a.Neighbors = append(a.Neighbors, lsaNeighbor{Local: ifc.Addr, Peer: peer.Addr, Cost: int64(ifc.Link.Delay)})
		}
	}
	l.install(a)
	l.flood(a, nil)
}

func (l *LS) handle(in *netsim.Iface, pkt *packet.Packet) {
	var a lsa
	if err := a.unmarshal(pkt.Payload); err != nil {
		return
	}
	if a.Origin == l.id {
		return // our own LSA echoed back
	}
	cur, ok := l.db[a.Origin]
	if ok && !newerSeq(a.Seq, cur.lsa.Seq) {
		return // stale or duplicate: do not re-flood
	}
	l.install(a)
	l.flood(a, in)
}

// newerSeq compares wrapping sequence numbers.
func newerSeq(a, b uint32) bool { return int32(a-b) > 0 }

// install holds a as its origin's LSA, received now. An SPF runs only when
// a's records differ from the held LSA's: a periodic refresh that repeats
// them changes no table, since spf reads nothing of a record but its
// neighbours and prefixes.
func (l *LS) install(a lsa) {
	cur, ok := l.db[a.Origin]
	l.db[a.Origin] = &lsaRecord{lsa: a, received: l.Node.Sched().Now()}
	if !ok || !slices.Equal(a.Neighbors, cur.lsa.Neighbors) || !slices.Equal(a.Prefixes, cur.lsa.Prefixes) {
		l.spf()
	}
}

func (l *LS) flood(a lsa, except *netsim.Iface) {
	payload := a.marshal()
	for _, ifc := range l.Node.Ifaces {
		if ifc == except || !ifc.Up() || ifc.Addr == 0 {
			continue
		}
		pkt := packet.New(ifc.Addr, addr.AllRouters, packet.ProtoLSSim, payload)
		pkt.TTL = 1
		l.Node.Send(ifc, pkt, 0)
	}
}

func (l *LS) ageOut() {
	now := l.Node.Sched().Now()
	changed := false
	for origin, rec := range l.db {
		if origin == l.id {
			continue
		}
		if now-rec.received > 3*l.RefreshPeriod {
			delete(l.db, origin)
			changed = true
		}
	}
	if changed {
		l.spf()
	}
}

// spf recomputes the routing table from the LSA database with the
// oracle's build, solve and best. The snapshot is every node of the network
// in Node.ID order, so nodes settle and ties break exactly as in the
// oracle's; but it joins two interfaces only where both routers' LSAs
// advertise the pair, and counts an interface an owner only where its
// router's LSA lists the prefix. The network only names each LSA's origin
// router.
func (l *LS) spf() {
	l.spfRuns++
	net := l.Node.Net
	l.rule = grown(l.rule, len(net.Nodes))
	clear(l.rule)
	for origin, rec := range l.db {
		if ifc := net.IfaceByAddr(origin); ifc != nil {
			l.rule[ifc.Node.ID] = &rec.lsa
		}
	}
	l.snap.build(net, l.rule)
	src, p := int32(l.Node.ID), &l.scratch.paths[0]
	l.snap.solve(src, p)
	clear(l.entries)
	for key, owners := range l.snap.owners {
		if r := l.snap.best(src, owners, p.read); r.Iface != nil {
			l.entries[LinkPrefix(addr.IP(key<<8))] = r
		}
	}
	if l.table.Replace(l.entries) {
		l.table.NotifyChanged()
	}
}

// lsaRule is an LS router's live rule: its database's LSAs, each at the
// Node.ID of the router its origin names, nil where it holds none.
type lsaRule []*lsa

// arc joins a and b where each one's router advertises the pair, at the
// larger of the two costs (both ends advertise their link's one delay) and
// at least 1 µs, which the solve's monotone queue needs.
func (r lsaRule) arc(a, b *netsim.Iface) (int64, bool) {
	ca, ok := r[a.Node.ID].cost(a.Addr, b.Addr)
	if !ok {
		return 0, false
	}
	cb, ok := r[b.Node.ID].cost(b.Addr, a.Addr)
	return max(ca, cb, 1), ok
}

// owns holds where ifc's router's LSA lists ifc's /24.
func (r lsaRule) owns(ifc *netsim.Iface) bool {
	a := r[ifc.Node.ID]
	return a != nil && slices.Contains(a.Prefixes, LinkPrefix(ifc.Addr))
}

// cost is what a advertises for the interface pair (local, peer); ok is
// false when a is nil or does not list the pair.
func (a *lsa) cost(local, peer addr.IP) (int64, bool) {
	if a != nil {
		for _, nb := range a.Neighbors {
			if nb.Local == local && nb.Peer == peer {
				return nb.Cost, true
			}
		}
	}
	return 0, false
}

// lsa is the wire link-state advertisement:
//
//	uint32 origin, uint32 seq,
//	uint16 #neighbors { uint32 local, uint32 peer, uint32 cost },
//	uint16 #prefixes  { uint32 addr, uint8 len }
//
// A neighbour record is one interface pair: the origin's interface address,
// the peer interface's address on the same link, and the link's cost.
type lsa struct {
	Origin    addr.IP
	Seq       uint32
	Neighbors []lsaNeighbor
	Prefixes  []addr.Prefix
}

type lsaNeighbor struct {
	Local, Peer addr.IP
	Cost        int64
}

var errBadLSA = errors.New("unicast: malformed LSA")

func (a *lsa) marshal() []byte {
	b := make([]byte, 12, 12+12*len(a.Neighbors)+5*len(a.Prefixes))
	binary.BigEndian.PutUint32(b[0:], uint32(a.Origin))
	binary.BigEndian.PutUint32(b[4:], a.Seq)
	binary.BigEndian.PutUint16(b[8:], uint16(len(a.Neighbors)))
	binary.BigEndian.PutUint16(b[10:], uint16(len(a.Prefixes)))
	for _, nb := range a.Neighbors {
		b = binary.BigEndian.AppendUint32(b, uint32(nb.Local))
		b = binary.BigEndian.AppendUint32(b, uint32(nb.Peer))
		b = binary.BigEndian.AppendUint32(b, uint32(min(max(nb.Cost, 0), math.MaxUint32)))
	}
	for _, p := range a.Prefixes {
		b = binary.BigEndian.AppendUint32(b, uint32(p.Addr))
		b = append(b, byte(p.Len))
	}
	return b
}

func (a *lsa) unmarshal(b []byte) error {
	if len(b) < 12 {
		return errBadLSA
	}
	a.Origin = addr.IP(binary.BigEndian.Uint32(b[0:]))
	a.Seq = binary.BigEndian.Uint32(b[4:])
	nn := int(binary.BigEndian.Uint16(b[8:]))
	np := int(binary.BigEndian.Uint16(b[10:]))
	b = b[12:]
	if len(b) < 12*nn+5*np {
		return errBadLSA
	}
	a.Neighbors = make([]lsaNeighbor, nn)
	for i := range a.Neighbors {
		a.Neighbors[i] = lsaNeighbor{
			Local: addr.IP(binary.BigEndian.Uint32(b[0:])),
			Peer:  addr.IP(binary.BigEndian.Uint32(b[4:])),
			Cost:  int64(binary.BigEndian.Uint32(b[8:])),
		}
		b = b[12:]
	}
	a.Prefixes = make([]addr.Prefix, np)
	for i := range a.Prefixes {
		p, err := addr.NewPrefix(addr.IP(binary.BigEndian.Uint32(b[0:])), int(b[4]))
		if err != nil {
			return errBadLSA
		}
		a.Prefixes[i] = p
		b = b[5:]
	}
	return nil
}
