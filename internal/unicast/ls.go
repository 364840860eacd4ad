package unicast

import (
	"container/heap"
	"encoding/binary"
	"errors"

	"pim/internal/addr"
	"pim/internal/netsim"
	"pim/internal/packet"
)

// LS is an OSPF-like link-state unicast routing process: each router floods
// a sequence-numbered LSA describing its adjacencies and attached prefixes,
// maintains a database of everyone's LSAs, and runs SPF over the resulting
// graph. MOSPF is this machinery plus membership LSAs; internal/mospf reads
// its router-link half from the Oracle, which stands for a database that
// converged the instant a link changed.
type LS struct {
	Node *netsim.Node
	// RefreshPeriod re-originates our LSA; foreign LSAs age out after
	// 3×RefreshPeriod.
	RefreshPeriod netsim.Time

	table *Table
	id    addr.IP // router ID = primary interface address
	seq   uint32
	db    map[addr.IP]*lsaRecord
}

type lsaRecord struct {
	lsa      lsa
	received netsim.Time
}

// LSDefaultRefresh is the LSA refresh interval.
const LSDefaultRefresh = 30 * netsim.Second

// NewLS attaches a link-state routing process to a node.
func NewLS(nd *netsim.Node) *LS {
	return &LS{Node: nd, RefreshPeriod: LSDefaultRefresh, table: &Table{}, db: map[addr.IP]*lsaRecord{}}
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

// originate builds our LSA from live adjacencies and floods it.
func (l *LS) originate() {
	l.seq++
	a := lsa{Origin: l.id, Seq: l.seq}
	for _, ifc := range l.Node.Ifaces {
		if !ifc.Up() || ifc.Addr == 0 {
			continue
		}
		a.Prefixes = append(a.Prefixes, lsaPrefix{Prefix: LinkPrefix(ifc.Addr), Cost: 0})
		for _, peer := range ifc.Link.Ifaces {
			if peer == ifc || !peer.Up() {
				continue
			}
			a.Neighbors = append(a.Neighbors, lsaNeighbor{
				Router: peer.Node.Addr(),
				Cost:   int64(ifc.Link.Delay),
			})
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

func (l *LS) install(a lsa) {
	l.db[a.Origin] = &lsaRecord{lsa: a, received: l.Node.Sched().Now()}
	l.spf()
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

// spf recomputes the routing table from the LSA database: Dijkstra over
// routers (an edge requires both endpoints to advertise each other —
// bidirectional check), then prefixes resolve through their advertising
// router.
func (l *LS) spf() {
	// advertises[a][b] == cost if a's LSA lists neighbor b.
	advertises := map[addr.IP]map[addr.IP]int64{}
	for origin, rec := range l.db {
		m := map[addr.IP]int64{}
		for _, nb := range rec.lsa.Neighbors {
			if c, ok := m[nb.Router]; !ok || nb.Cost < c {
				m[nb.Router] = nb.Cost
			}
		}
		advertises[origin] = m
	}
	dist := map[addr.IP]int64{l.id: 0}
	firstHop := map[addr.IP]addr.IP{} // router -> first-hop neighbor router
	done := map[addr.IP]bool{}
	h := &lsHeap{{router: l.id}}
	for h.Len() > 0 {
		it := heap.Pop(h).(lsItem)
		v := it.router
		if done[v] {
			continue
		}
		done[v] = true
		for nb, cost := range advertises[v] {
			back, ok := advertises[nb]
			if !ok {
				continue
			}
			if _, bidir := back[v]; !bidir {
				continue
			}
			nd := dist[v] + cost
			old, seen := dist[nb]
			if !seen || nd < old || (nd == old && v != l.id && firstHop[v] < firstHop[nb]) {
				dist[nb] = nd
				if v == l.id {
					firstHop[nb] = nb
				} else {
					firstHop[nb] = firstHop[v]
				}
				heap.Push(h, lsItem{router: nb, dist: nd})
			}
		}
	}
	// Resolve first-hop routers to local (iface, nexthop addr).
	adj := l.localAdjacency()
	entries := map[addr.Prefix]Route{}
	for origin, rec := range l.db {
		d, reach := dist[origin]
		for _, lp := range rec.lsa.Prefixes {
			var r Route
			if origin == l.id {
				var ifc *netsim.Iface
				for _, c := range l.Node.Ifaces {
					if c.Up() && c.Addr != 0 && lp.Prefix.Contains(c.Addr) {
						ifc = c
						break
					}
				}
				if ifc == nil {
					continue
				}
				r = Route{Iface: ifc, NextHop: 0, Metric: 0}
			} else {
				if !reach {
					continue
				}
				hop, ok := adj[firstHop[origin]]
				if !ok {
					continue
				}
				r = Route{Iface: hop.iface, NextHop: hop.addr, Metric: d + lp.Cost}
			}
			if cur, ok := entries[lp.Prefix]; !ok || r.Metric < cur.Metric {
				entries[lp.Prefix] = r
			}
		}
	}
	if l.table.Replace(entries) {
		l.table.NotifyChanged()
	}
}

type lsAdj struct {
	iface *netsim.Iface
	addr  addr.IP
}

// localAdjacency maps neighbor router IDs to the local interface and
// neighbor interface address reaching them, preferring the cheapest link.
func (l *LS) localAdjacency() map[addr.IP]lsAdj {
	out := map[addr.IP]lsAdj{}
	best := map[addr.IP]int64{}
	for _, ifc := range l.Node.Ifaces {
		if !ifc.Up() || ifc.Addr == 0 {
			continue
		}
		for _, peer := range ifc.Link.Ifaces {
			if peer == ifc || !peer.Up() {
				continue
			}
			id := peer.Node.Addr()
			c := int64(ifc.Link.Delay)
			if old, ok := best[id]; !ok || c < old {
				best[id] = c
				out[id] = lsAdj{iface: ifc, addr: peer.Addr}
			}
		}
	}
	return out
}

type lsItem struct {
	router addr.IP
	dist   int64
}

type lsHeap []lsItem

func (h lsHeap) Len() int { return len(h) }
func (h lsHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].router < h[j].router
}
func (h lsHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *lsHeap) Push(x interface{}) { *h = append(*h, x.(lsItem)) }
func (h *lsHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// lsa is the wire link-state advertisement:
//
//	uint32 origin, uint32 seq,
//	uint16 #neighbors { uint32 router, uint32 cost },
//	uint16 #prefixes  { uint32 addr, uint8 len, uint32 cost }
type lsa struct {
	Origin    addr.IP
	Seq       uint32
	Neighbors []lsaNeighbor
	Prefixes  []lsaPrefix
}

type lsaNeighbor struct {
	Router addr.IP
	Cost   int64
}

type lsaPrefix struct {
	Prefix addr.Prefix
	Cost   int64
}

var errBadLSA = errors.New("unicast: malformed LSA")

func (a *lsa) marshal() []byte {
	b := make([]byte, 0, 12+8*len(a.Neighbors)+9*len(a.Prefixes))
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(a.Origin))
	binary.BigEndian.PutUint32(hdr[4:], a.Seq)
	binary.BigEndian.PutUint16(hdr[8:], uint16(len(a.Neighbors)))
	binary.BigEndian.PutUint16(hdr[10:], uint16(len(a.Prefixes)))
	b = append(b, hdr[:]...)
	for _, nb := range a.Neighbors {
		var e [8]byte
		binary.BigEndian.PutUint32(e[0:], uint32(nb.Router))
		binary.BigEndian.PutUint32(e[4:], clampCost(nb.Cost))
		b = append(b, e[:]...)
	}
	for _, p := range a.Prefixes {
		var e [9]byte
		binary.BigEndian.PutUint32(e[0:], uint32(p.Prefix.Addr))
		e[4] = byte(p.Prefix.Len)
		binary.BigEndian.PutUint32(e[5:], clampCost(p.Cost))
		b = append(b, e[:]...)
	}
	return b
}

func clampCost(c int64) uint32 {
	if c < 0 {
		return 0
	}
	if c > 0xFFFFFFFE {
		return 0xFFFFFFFE
	}
	return uint32(c)
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
	if len(b) < 8*nn+9*np {
		return errBadLSA
	}
	a.Neighbors = make([]lsaNeighbor, nn)
	for i := 0; i < nn; i++ {
		a.Neighbors[i] = lsaNeighbor{
			Router: addr.IP(binary.BigEndian.Uint32(b[0:])),
			Cost:   int64(binary.BigEndian.Uint32(b[4:])),
		}
		b = b[8:]
	}
	a.Prefixes = make([]lsaPrefix, np)
	for i := 0; i < np; i++ {
		p, err := addr.NewPrefix(addr.IP(binary.BigEndian.Uint32(b[0:])), int(b[4]))
		if err != nil {
			return errBadLSA
		}
		a.Prefixes[i] = lsaPrefix{Prefix: p, Cost: int64(binary.BigEndian.Uint32(b[5:]))}
		b = b[9:]
	}
	return nil
}
