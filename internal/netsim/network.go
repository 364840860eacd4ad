package netsim

import (
	"fmt"

	"pim/internal/addr"
	"pim/internal/packet"
)

// Handler consumes packets delivered to a node for one IP protocol number.
// in is the interface the packet arrived on.
//
// Borrowed-frame contract (DESIGN.md §13): pkt, its Payload, and anything
// aliasing the Payload (decoded message views, Register inner bytes) are
// only valid for the duration of the HandlePacket call — the backing frame
// returns to its scheduler's pool when the delivery fan-out completes. A
// handler that retains any of it must copy. SetPoisonFrames turns
// violations into deterministic garbage reads.
type Handler interface {
	HandlePacket(in *Iface, pkt *packet.Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(in *Iface, pkt *packet.Packet)

// HandlePacket implements Handler.
func (f HandlerFunc) HandlePacket(in *Iface, pkt *packet.Packet) { f(in, pkt) }

// Node is a simulated router or host. Protocol stacks register per-protocol
// handlers; packets with no handler are counted as dropped.
type Node struct {
	Net    *Network
	ID     int
	Name   string
	Ifaces []*Iface

	// handlers holds one slot per protocol a stack speaks (protos), indexed
	// through the package-wide protoSlot table. Every packet crossing every
	// link is demultiplexed here, so the lookup is two loads of L1-resident
	// memory; and every router and host carries the slots, so
	// there are nine of them, not one per possible protocol number.
	handlers     [len(protos)]Handler
	onLinkChange []func(*Iface)
	// xmit sequences the node's transmissions; with the node ID it is the
	// order key of its deliveries (deliveryOrd).
	xmit uint64
}

// Sched returns the scheduler that runs this node's events: the network's.
func (nd *Node) Sched() *Scheduler { return nd.Net.Sched }

// Iface is one network attachment point of a node.
type Iface struct {
	Node  *Node
	Index int // position within Node.Ifaces
	Addr  addr.IP
	Link  *Link
	up    bool
}

// Up reports whether both the interface and its link are operational.
func (i *Iface) Up() bool { return i.up && i.Link != nil && i.Link.up }

// String names the interface for traces: "node/ifN".
func (i *Iface) String() string { return fmt.Sprintf("%s/if%d", i.Node.Name, i.Index) }

// Link joins two or more interfaces. Two interfaces make a point-to-point
// link; three or more make a multi-access LAN on which every attached
// interface hears every frame (the §3.7 prune-override behaviour depends on
// this).
type Link struct {
	Net    *Network
	ID     int
	Delay  Time
	Ifaces []*Iface
	up     bool
	lan    bool // made by ConnectLAN

	// Bandwidth, when nonzero, is the link capacity in bytes per second:
	// each frame occupies the transmitter for len/Bandwidth and later
	// frames queue FIFO behind it. Zero means infinite capacity (pure
	// propagation delay), the default. Finite bandwidth turns traffic
	// concentration (Figure 1(c)/2(b)) into measurable queueing delay.
	Bandwidth int64
	// nextFree[iface] is when the transmitter side of the link frees up.
	nextFree map[*Iface]Time
	// MaxQueueDelay records the worst queueing delay any frame saw.
	MaxQueueDelay Time
}

// IsLAN reports whether the link is a shared multi-access link, made by
// ConnectLAN, whatever the number of interfaces it attaches.
func (l *Link) IsLAN() bool { return l.lan }

// Up reports whether the link is operational.
func (l *Link) Up() bool { return l.up }

// TraceEvent describes one packet delivery for test and example hooks.
// Pkt is borrowed under the same contract as Handler deliveries: copy
// whatever outlives the callback. The address of Pkt identifies nothing
// beyond the call: every delivery a scheduler fires uses the same header.
type TraceEvent struct {
	At   Time
	From *Iface // transmitting interface
	To   *Iface // receiving interface
	Pkt  *packet.Packet
}

// Network owns the scheduler, nodes, and links of one simulation.
type Network struct {
	Sched *Scheduler
	Nodes []*Node
	Links []*Link
	Stats Stats
	// Trace, if non-nil, observes every packet delivery.
	Trace func(TraceEvent)
	// Loss, if non-nil, is consulted for every frame delivery; returning
	// true drops the frame. Used by failure-injection tests to verify the
	// soft-state robustness claims (§2): lost control messages must be
	// recovered by the next periodic refresh, not retransmission.
	Loss func(from, to *Iface, pkt *packet.Packet) bool
	// Jitter, if non-nil, is consulted once per transmission (per link
	// crossing, not per receiver) and returns extra propagation delay added
	// to the link's Delay for that frame. The fault layer's message-reorder
	// primitive rides on it: jittered frames from one sender can overtake
	// each other.
	Jitter func(from *Iface, pkt *packet.Packet) Time

	byAddr map[addr.IP]*Iface
	// scratch holds one value of each type Scratch was asked for.
	scratch []any
}

// NewNetwork creates an empty network with a fresh scheduler.
func NewNetwork() *Network {
	return &Network{Sched: NewScheduler(), byAddr: map[addr.IP]*Iface{}}
}

// Scratch returns the simulation's one *T, made zero on first use: the
// per-call working memory every protocol instance of one kind shares
// (DESIGN.md §13). A simulation runs on one goroutine and a handler call or
// timer body runs to completion, so a buffer used only inside one call needs
// one copy per simulation, not one per router; it lives and dies with the
// Network, like the frame pool. Callers look it up when they build what uses
// it and keep the pointer, not once per call.
func Scratch[T any](n *Network) *T {
	for _, s := range n.scratch {
		if p, ok := s.(*T); ok {
			return p
		}
	}
	p := new(T)
	n.scratch = append(n.scratch, p)
	return p
}

// EventsProcessed returns the number of scheduler events executed so far.
func (n *Network) EventsProcessed() int64 { return n.Sched.Processed }

// PeakLiveTimers returns the scheduler's timer-population high-water mark.
func (n *Network) PeakLiveTimers() int { return n.Sched.PeakLiveTimers() }

// LiveTimers returns the number of pending events that can still fire.
func (n *Network) LiveTimers() int { return n.Sched.LiveTimers() }

// AddNode creates a node. Names must be unique only for readable traces.
func (n *Network) AddNode(name string) *Node {
	checkNodeID(len(n.Nodes))
	nd := &Node{Net: n, ID: len(n.Nodes), Name: name}
	n.Nodes = append(n.Nodes, nd)
	return nd
}

// AddIface attaches a new interface with the given address to the node. The
// interface starts up but unlinked; use Connect/ConnectLAN to join links.
func (n *Network) AddIface(nd *Node, ip addr.IP) *Iface {
	ifc := &Iface{Node: nd, Index: len(nd.Ifaces), Addr: ip, up: true}
	nd.Ifaces = append(nd.Ifaces, ifc)
	if ip != 0 {
		n.byAddr[ip] = ifc
	}
	return ifc
}

// Connect joins exactly two interfaces with a point-to-point link.
func (n *Network) Connect(a, b *Iface, delay Time) *Link {
	return n.link(delay, a, b)
}

// ConnectLAN joins any number of interfaces on a shared multi-access link.
func (n *Network) ConnectLAN(delay Time, ifaces ...*Iface) *Link {
	l := n.link(delay, ifaces...)
	l.lan = true
	return l
}

func (n *Network) link(delay Time, ifaces ...*Iface) *Link {
	if len(ifaces) < 2 {
		panic("netsim: link needs at least two interfaces")
	}
	if delay <= 0 {
		delay = 1
	}
	l := &Link{Net: n, ID: len(n.Links), Delay: delay, up: true}
	for _, ifc := range ifaces {
		if ifc.Link != nil {
			panic("netsim: interface already linked: " + ifc.String())
		}
		ifc.Link = l
		l.Ifaces = append(l.Ifaces, ifc)
	}
	n.Links = append(n.Links, l)
	return l
}

// SetLinkUp changes a link's operational state and notifies link-change
// subscribers on every attached node (unicast routing reacts to this; PIM
// then adapts per §3.8).
func (n *Network) SetLinkUp(l *Link, up bool) {
	if l.up == up {
		return
	}
	l.up = up
	for _, ifc := range l.Ifaces {
		for _, fn := range ifc.Node.onLinkChange {
			fn(ifc)
		}
	}
}

// SetIfaceUp changes one interface's operational state and notifies
// link-change subscribers on every node sharing its link. This is the
// fail-stop router model of the fault-injection layer (internal/faults): a
// crashed router's interfaces all go down while the links — and, on a LAN,
// the other stations — stay up.
func (n *Network) SetIfaceUp(ifc *Iface, up bool) {
	if ifc.up == up {
		return
	}
	ifc.up = up
	if ifc.Link == nil {
		for _, fn := range ifc.Node.onLinkChange {
			fn(ifc)
		}
		return
	}
	for _, peer := range ifc.Link.Ifaces {
		for _, fn := range peer.Node.onLinkChange {
			fn(peer)
		}
	}
}

// IfaceByAddr resolves an interface address.
func (n *Network) IfaceByAddr(ip addr.IP) *Iface { return n.byAddr[ip] }

// protos lists the IP protocol numbers a node demultiplexes: every
// packet.Proto* constant. A frame carrying any other number finds no handler.
var protos = [...]byte{
	packet.ProtoIGMP, packet.ProtoUDP, packet.ProtoPIM, packet.ProtoDVMRP, packet.ProtoCBT,
	packet.ProtoRIPSim, packet.ProtoLSSim, packet.ProtoMOSPF, packet.ProtoPIMData,
}

// protoSlot maps an IP protocol number to its index in protos, or noSlot.
var protoSlot = func() (t [256]uint8) {
	for i := range t {
		t[i] = noSlot
	}
	for i, p := range protos {
		t[p] = uint8(i)
	}
	return t
}()

const noSlot = 0xFF

// handler returns the node's handler for an IP protocol number, nil when
// none is registered or no stack speaks the number.
func (nd *Node) handler(proto byte) Handler {
	if s := protoSlot[proto]; int(s) < len(nd.handlers) {
		return nd.handlers[s]
	}
	return nil
}

// Handle registers h for an IP protocol number on the node; nil detaches the
// protocol. It panics on a number outside packet.Proto*, which has no slot.
func (nd *Node) Handle(proto byte, h Handler) {
	s := protoSlot[proto]
	if int(s) >= len(nd.handlers) {
		panic(fmt.Sprintf("netsim: IP protocol %d is not one of packet.Proto*: no handler slot", proto))
	}
	nd.handlers[s] = h
}

// OnLinkChange registers a callback invoked when any of the node's links
// change operational state.
func (nd *Node) OnLinkChange(fn func(*Iface)) {
	nd.onLinkChange = append(nd.onLinkChange, fn)
}

// Addr returns the node's primary address (interface 0), or 0 if none.
func (nd *Node) Addr() addr.IP {
	if len(nd.Ifaces) == 0 {
		return 0
	}
	return nd.Ifaces[0].Addr
}

// OwnsAddr reports whether ip is one of the node's interface addresses.
func (nd *Node) OwnsAddr(ip addr.IP) bool {
	for _, ifc := range nd.Ifaces {
		if ifc.Addr == ip {
			return true
		}
	}
	return false
}

// IfaceTo returns the node's interface on the same link as the neighbor
// address, or nil.
func (nd *Node) IfaceTo(neighbor addr.IP) *Iface {
	for _, ifc := range nd.Ifaces {
		if ifc.Link == nil {
			continue
		}
		for _, peer := range ifc.Link.Ifaces {
			if peer != ifc && peer.Addr == neighbor {
				return ifc
			}
		}
	}
	return nil
}

// Send transmits pkt out the given interface. nextHop selects the receiving
// interface on a LAN (the link-layer destination); pass 0 to deliver to all
// other attached interfaces, which is what multicast and broadcast frames
// do. On point-to-point links nextHop is ignored.
//
// The packet is marshalled to bytes here and the frame unmarshalled once
// when it comes off the link — one codec round trip per link crossing, the
// same coverage as before, but a LAN frame heard by k stations no longer
// decodes k times. Each receiving handler still gets its own Packet header
// (payload bytes are shared, exactly as the per-receiver decode shared the
// frame buffer). Malformed packets panic (they indicate a protocol
// implementation bug, not a runtime condition).
func (nd *Node) Send(out *Iface, pkt *packet.Packet, nextHop addr.IP) {
	if out == nil || !out.Up() {
		nd.Net.Stats.Drop(DropIfaceDown)
		return
	}
	link := out.Link
	net := nd.Net
	// Marshal straight into a recycled frame, so pkt — and any scratch
	// buffer backing its Payload — is free for reuse the moment Send returns.
	f := net.Sched.frames.get()
	var err error
	f.buf, err = pkt.MarshalTo(f.buf[:0])
	if err != nil {
		panic("netsim: marshal failed: " + err.Error())
	}
	f.from, f.nextHop = out, nextHop
	net.Stats.Transmit(link, pkt)
	// Jitter is drawn once per transmission (per link crossing).
	var jit Time
	if net.Jitter != nil {
		jit = net.Jitter(out, pkt)
	}
	// Serialization and queueing under finite bandwidth.
	var txDone Time
	now := net.Sched.Now()
	if link.Bandwidth > 0 {
		if link.nextFree == nil {
			link.nextFree = map[*Iface]Time{}
		}
		start := link.nextFree[out]
		if start < now {
			start = now
		}
		if q := start - now; q > link.MaxQueueDelay {
			link.MaxQueueDelay = q
		}
		tx := Time(int64(pkt.Len()) * int64(Second) / link.Bandwidth)
		if tx < 1 {
			tx = 1
		}
		txDone = start + tx - now
		link.nextFree[out] = start + tx
	}
	// One scheduler event per link crossing (not per receiver): the frame is
	// decoded once at arrival and fanned to every station in attachment
	// order. The event carries the structural (sender, transmit sequence)
	// order key, so same-instant deliveries fire in one canonical order.
	delay := link.Delay + jit
	nd.xmit++
	net.Sched.enqueueDelivery(now+txDone+delay, now, deliveryOrd(nd.ID, nd.xmit), f)
}

// deliverFrame takes one frame off the link: a single in-place decode into
// the scheduler's header scratch rx, then delivery to every eligible
// attached interface. Each station gets a fresh copy of the header in rx.rcv,
// so a handler mutating its view (TTL etc.) cannot leak into the next
// station's delivery.
func (n *Network) deliverFrame(f *frame, rx *rxScratch) {
	err := packet.UnmarshalInto(&rx.hdr, f.buf)
	from := f.from
	link := from.Link
	lan := link.IsLAN()
	for _, to := range link.Ifaces {
		if to == from {
			continue
		}
		if lan && f.nextHop != 0 && to.Addr != f.nextHop {
			continue
		}
		if !to.Up() || !from.Up() {
			n.Stats.Drop(DropLinkDown)
			continue
		}
		if err != nil {
			n.Stats.Drop(DropMalformed)
			continue
		}
		rx.rcv = rx.hdr
		n.deliver(from, to, &rx.rcv)
	}
}

func (n *Network) deliver(from, to *Iface, pkt *packet.Packet) {
	stats := &n.Stats
	if n.Loss != nil && n.Loss(from, to, pkt) {
		stats.Drop(DropInjectedLoss)
		return
	}
	if n.Trace != nil {
		n.Trace(TraceEvent{At: n.Sched.Now(), From: from, To: to, Pkt: pkt})
	}
	h := to.Node.handler(pkt.Protocol)
	if h == nil {
		stats.Drop(DropNoHandler)
		return
	}
	stats.Received++
	h.HandlePacket(to, pkt)
}

// LocalSend injects a locally originated packet into the node's own stack as
// if it had arrived on the given interface; used for loopback-style delivery
// (e.g. an RP processing its own register) without crossing a link.
func (nd *Node) LocalSend(ifc *Iface, pkt *packet.Packet) {
	h := nd.handler(pkt.Protocol)
	if h == nil {
		nd.Net.Stats.Drop(DropNoHandler)
		return
	}
	h.HandlePacket(ifc, pkt)
}
