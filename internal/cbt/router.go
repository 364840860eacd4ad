package cbt

import (
	"cmp"
	"slices"

	"pim/internal/addr"
	"pim/internal/engine"
	"pim/internal/metrics"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/telemetry"
	"pim/internal/unicast"
)

// Config carries the protocol parameters.
type Config struct {
	// CoreMapping assigns each group its core router address.
	CoreMapping map[addr.IP]addr.IP
	// EchoInterval paces child→parent keepalives; a parent silent for 3×
	// flushes the subtree.
	EchoInterval netsim.Time
	// JoinRetry is the JOIN-REQUEST retransmission interval until the ack
	// arrives (CBT's explicit hop-by-hop reliability).
	JoinRetry netsim.Time
	// AckRetry is the JOIN-ACK retransmission interval: the parent re-sends
	// an unconfirmed ack with doubling backoff up to maxAckRetries times,
	// until the child's first echo confirms it joined. Together with the
	// child's JoinRetry this makes the handshake survive loss in either
	// direction.
	AckRetry netsim.Time
	// Telemetry, when non-nil, receives the router's event stream. Nil keeps
	// every emit site a single predictable branch (zero-cost disabled).
	Telemetry *telemetry.Bus
}

// Defaults.
const (
	DefaultEchoInterval = 30 * netsim.Second
	DefaultJoinRetry    = 5 * netsim.Second
	DefaultAckRetry     = 2 * netsim.Second
	// maxAckRetries bounds ack retransmissions; past that the child's own
	// join-request retry recovers the handshake.
	maxAckRetries = 3
)

// edge is one downstream direction of a group's tree: a child router (hop is
// its address) or a member LAN (hop 0: every station on the link).
type edge struct {
	ifc *netsim.Iface
	hop addr.IP
}

// groupState is this router's node on one group's bidirectional tree. Its
// three edge lists are kept sorted by (interface index, hop) as they change,
// so everything sent per edge — data fan-out, acks, flushes — walks them in
// that order with nothing sorted per packet or per message.
type groupState struct {
	core       addr.IP
	onTree     bool
	parentIf   *netsim.Iface
	parentAddr addr.IP // 0 at the core
	// children are the downstream routers (a multi-access LAN can carry
	// several on one interface).
	children []edge
	// memberIfs are the interfaces with local IGMP members.
	memberIfs []edge
	// pending are downstream joins awaiting our own ack.
	pending []edge
	// joinTimer retransmits the join request until acked.
	joinTimer *netsim.Timer
	// lastReply tracks parent liveness.
	lastReply netsim.Time
}

// Router is one CBT router instance.
type Router struct {
	engine.Chassis
	Cfg Config

	groups map[addr.IP]*groupState
	// pendingAcks holds join-ack retransmission state per (group, child).
	pendingAcks map[ackKey]*pendingAck
	// kaScratch is the keepalive walk's reusable sorted-group buffer.
	kaScratch []addr.IP
}

// ackKey identifies one downstream child awaiting ack confirmation.
type ackKey struct {
	group addr.IP
	ifIdx int
	child addr.IP
}

// pendingAck tracks one join-ack awaiting confirmation from the child.
type pendingAck struct {
	timer    *netsim.Timer
	attempts int
}

// New builds a CBT router.
func New(nd *netsim.Node, cfg Config, uni unicast.Router) *Router {
	if cfg.EchoInterval == 0 {
		cfg.EchoInterval = DefaultEchoInterval
	}
	if cfg.JoinRetry == 0 {
		cfg.JoinRetry = DefaultJoinRetry
	}
	if cfg.AckRetry == 0 {
		cfg.AckRetry = DefaultAckRetry
	}
	if cfg.CoreMapping == nil {
		cfg.CoreMapping = map[addr.IP]addr.IP{}
	}
	r := &Router{Chassis: engine.NewChassis(nd, uni, cfg.Telemetry), Cfg: cfg}
	r.reset()
	r.Handle(packet.ProtoCBT, r.handleCtrl)
	r.Handle(packet.ProtoUDP, r.handleData)
	return r
}

// Start registers handlers and begins keepalives.
func (r *Router) Start() {
	r.Chassis.Start(len(r.groups), func() { r.Every(0, r.Cfg.EchoInterval, r.keepalive) })
}

// Stop detaches the router and discards all soft state: every group's tree
// attachment (parent, children, members) and all join/ack retransmission
// timers. Neighbors detect the loss through silence — the parent stops
// answering echoes and children eventually flush.
func (r *Router) Stop() { r.Chassis.Stop(0, r.reset) }

func (r *Router) reset() {
	for _, st := range r.groups {
		if st.joinTimer != nil {
			st.joinTimer.Stop()
		}
	}
	for _, p := range r.pendingAcks {
		p.timer.Stop()
	}
	r.groups = map[addr.IP]*groupState{}
	r.pendingAcks = map[ackKey]*pendingAck{}
}

// Restart brings a stopped router back empty; tree state rebuilds from
// local rejoins and downstream join-requests.
func (r *Router) Restart() {
	r.Stop()
	r.Start()
}

// StateCount returns the number of per-group tree entries — CBT's state
// axis (one entry per group regardless of source count).
func (r *Router) StateCount() int { return len(r.groups) }

// OnTree reports whether this router is on the group's tree.
func (r *Router) OnTree(g addr.IP) bool {
	st := r.groups[g]
	return st != nil && st.onTree
}

func (r *Router) state(g addr.IP) *groupState {
	st := r.groups[g]
	if st == nil {
		st = &groupState{core: r.Cfg.CoreMapping[g]}
		r.groups[g] = st
		r.Pub(telemetry.EntryCreate, -1, 0, g, telemetry.EntryWC)
	}
	return st
}

// dropState removes a group's tree entry and publishes its expiry.
func (r *Router) dropState(g addr.IP) {
	if _, ok := r.groups[g]; !ok {
		return
	}
	r.Pub(telemetry.EntryExpire, -1, 0, g, telemetry.EntryWC)
	delete(r.groups, g)
}

// --- Membership ---

// LocalJoin records a member and joins the tree toward the core.
func (r *Router) LocalJoin(ifc *netsim.Iface, g addr.IP) {
	core, ok := r.Cfg.CoreMapping[g]
	if !ok {
		return
	}
	st := r.state(g)
	st.memberIfs = addEdge(st.memberIfs, edge{ifc, 0})
	if st.onTree {
		return
	}
	if r.Node.OwnsAddr(core) {
		st.onTree = true // the core is the root of its own tree
		return
	}
	r.sendJoinReq(g, st)
}

// LocalLeave removes a member; a leaf router with no members quits the tree.
func (r *Router) LocalLeave(ifc *netsim.Iface, g addr.IP) {
	st := r.groups[g]
	if st == nil {
		return
	}
	st.memberIfs = dropEdge(st.memberIfs, edge{ifc, 0})
	r.maybeQuit(g, st)
}

func (r *Router) maybeQuit(g addr.IP, st *groupState) {
	if len(st.memberIfs) > 0 || len(st.children) > 0 || r.Node.OwnsAddr(st.core) {
		return
	}
	if st.onTree && st.parentAddr != 0 && st.parentIf != nil && st.parentIf.Up() {
		r.sendTo(st.parentIf, st.parentAddr, &Message{Type: TypeQuit, Group: g})
		r.Pub(telemetry.PruneSend, st.parentIf.Index, 0, g, 0)
	}
	if st.joinTimer != nil {
		st.joinTimer.Stop()
	}
	r.dropState(g)
}

// --- Tree construction ---

// sendJoinReq transmits (and schedules retransmission of) the join request
// toward the core.
func (r *Router) sendJoinReq(g addr.IP, st *groupState) {
	if rt, ok := r.RPF.Lookup(st.core); ok {
		nextHop := rt.NextHop
		if nextHop == 0 {
			nextHop = st.core
		}
		st.parentIf, st.parentAddr = rt.Iface, nextHop
		r.sendTo(rt.Iface, nextHop, &Message{Type: TypeJoinReq, Group: g, Core: st.core})
		r.Metrics.Inc(metrics.CtrlCBTJoin)
		r.Pub(telemetry.JoinPruneSend, rt.Iface.Index, 0, g, 1)
	}
	// Arm the retry even when the core is momentarily unreachable: the
	// request repeats until the handshake completes.
	if st.joinTimer != nil {
		st.joinTimer.Stop()
	}
	st.joinTimer = r.After(r.Cfg.JoinRetry, func() {
		if cur := r.groups[g]; cur == st && !st.onTree {
			r.sendJoinReq(g, st) // explicit reliability: retransmit until acked
		}
	})
}

func (r *Router) handleCtrl(in *netsim.Iface, pkt *packet.Packet) {
	var msg Message
	if err := UnmarshalInto(&msg, pkt.Payload); err != nil {
		return
	}
	m := &msg
	switch m.Type {
	case TypeJoinReq:
		r.handleJoinReq(in, pkt.Src, m)
	case TypeJoinAck:
		r.handleJoinAck(in, m)
	case TypeQuit:
		r.cancelAckRetry(m.Group, in.Index, pkt.Src)
		if st := r.groups[m.Group]; st != nil {
			st.children = dropEdge(st.children, edge{in, pkt.Src})
			r.maybeQuit(m.Group, st)
		}
	case TypeEchoReq:
		// The child echoing proves it received our join-ack.
		r.cancelAckRetry(m.Group, in.Index, pkt.Src)
		if st := r.groups[m.Group]; st != nil && st.onTree && hasEdge(st.children, edge{in, pkt.Src}) {
			r.sendTo(in, pkt.Src, &Message{Type: TypeEchoReply, Group: m.Group})
			r.Metrics.Inc(metrics.CtrlCBTEcho)
		}
	case TypeEchoReply:
		if st := r.groups[m.Group]; st != nil && in == st.parentIf {
			st.lastReply = r.Now()
		}
	case TypeFlush:
		r.flush(m.Group)
	}
}

func (r *Router) handleJoinReq(in *netsim.Iface, from addr.IP, m *Message) {
	st := r.state(m.Group)
	if st.core == 0 {
		st.core = m.Core
	}
	if st.onTree || r.Node.OwnsAddr(m.Core) {
		st.onTree = true
		st.children = addEdge(st.children, edge{in, from})
		r.sendJoinAck(m.Group, in, from, m.Core)
		return
	}
	// Transit router: remember the requester, forward toward the core.
	st.pending = addEdge(st.pending, edge{in, from})
	if st.joinTimer == nil || !st.joinTimer.Active() {
		r.sendJoinReq(m.Group, st)
	}
}

func (r *Router) handleJoinAck(in *netsim.Iface, m *Message) {
	st := r.groups[m.Group]
	if st == nil || st.onTree || in != st.parentIf {
		return
	}
	st.onTree = true
	st.lastReply = r.Now()
	if st.joinTimer != nil {
		st.joinTimer.Stop()
	}
	// Ack every waiting downstream joiner.
	for _, e := range st.pending {
		st.children = addEdge(st.children, e)
		r.sendJoinAck(m.Group, e.ifc, e.hop, st.core)
	}
	st.pending = nil
}

// sendJoinAck transmits a join-ack and arms its retransmission: an ack lost
// on the wire would leave the child retrying join-requests for a full
// JoinRetry period, so the parent re-sends it with doubling backoff until
// the child's first echo (or quit) confirms receipt, bounded at
// maxAckRetries attempts.
func (r *Router) sendJoinAck(g addr.IP, ifc *netsim.Iface, child addr.IP, core addr.IP) {
	r.sendTo(ifc, child, &Message{Type: TypeJoinAck, Group: g, Core: core})
	r.Metrics.Inc(metrics.CtrlCBTAck)
	r.armAckRetry(g, ifc, child, 0)
}

func (r *Router) armAckRetry(g addr.IP, ifc *netsim.Iface, child addr.IP, attempts int) {
	key := ackKey{group: g, ifIdx: ifc.Index, child: child}
	if prev := r.pendingAcks[key]; prev != nil {
		prev.timer.Stop()
	}
	if attempts >= maxAckRetries {
		delete(r.pendingAcks, key)
		return
	}
	p := &pendingAck{attempts: attempts}
	p.timer = r.After(r.Cfg.AckRetry<<uint(attempts), func() {
		if r.pendingAcks[key] != p {
			return
		}
		st := r.groups[g]
		if st == nil || !st.onTree || !hasEdge(st.children, edge{ifc, child}) {
			delete(r.pendingAcks, key)
			return
		}
		r.sendTo(ifc, child, &Message{Type: TypeJoinAck, Group: g, Core: st.core})
		r.Metrics.Inc(metrics.CtrlCBTAck)
		r.armAckRetry(g, ifc, child, attempts+1)
	})
	r.pendingAcks[key] = p
}

// cancelAckRetry clears ack-retransmission state once the child is known to
// have processed the ack (echoed) or left (quit).
func (r *Router) cancelAckRetry(g addr.IP, ifIdx int, child addr.IP) {
	key := ackKey{group: g, ifIdx: ifIdx, child: child}
	if p := r.pendingAcks[key]; p != nil {
		p.timer.Stop()
		delete(r.pendingAcks, key)
	}
}

// --- Keepalive and failure recovery ---

func (r *Router) keepalive() {
	now := r.Now()
	// Echo requests and parent-failure flushes are sends: their order must
	// not follow map iteration (the expireNeighbors bug class), so walk the
	// groups in ascending order via a reusable scratch.
	r.kaScratch = r.kaScratch[:0]
	for g := range r.groups {
		r.kaScratch = append(r.kaScratch, g)
	}
	slices.Sort(r.kaScratch)
	for _, g := range r.kaScratch {
		st := r.groups[g]
		if !st.onTree || st.parentAddr == 0 {
			continue
		}
		if st.lastReply != 0 && now-st.lastReply > 3*r.Cfg.EchoInterval {
			// Parent is gone: flush the subtree, then rejoin if we still
			// have local members.
			r.flush(g)
			continue
		}
		if st.parentIf != nil && st.parentIf.Up() {
			r.sendTo(st.parentIf, st.parentAddr, &Message{Type: TypeEchoReq, Group: g})
			r.Metrics.Inc(metrics.CtrlCBTEcho)
		}
	}
}

// flush tears down this router's attachment and propagates downstream; a
// router with local members immediately rejoins toward the core.
func (r *Router) flush(g addr.IP) {
	st := r.groups[g]
	if st == nil {
		return
	}
	for _, e := range st.children {
		r.sendTo(e.ifc, e.hop, &Message{Type: TypeFlush, Group: g})
	}
	members := st.memberIfs
	if st.joinTimer != nil {
		st.joinTimer.Stop()
	}
	r.dropState(g)
	if len(members) > 0 && !r.Node.OwnsAddr(st.core) {
		ns := r.state(g)
		ns.memberIfs = members
		r.sendJoinReq(g, ns)
	}
}

// --- Data plane ---

// handleData forwards multicast data over the bidirectional tree: packets
// from any tree direction (or a local member LAN) flow to every other tree
// edge and member LAN. Off-tree routers relay the packet hop-by-hop toward
// the core (the CBT "non-member sender" path).
func (r *Router) handleData(in *netsim.Iface, pkt *packet.Packet) {
	g := pkt.Dst
	if !g.IsMulticast() || g.IsLinkLocalMulticast() {
		return
	}
	st := r.groups[g]
	if st == nil || !st.onTree {
		core, ok := r.Cfg.CoreMapping[g]
		if !ok {
			r.Metrics.Inc(metrics.DataNoState)
			r.Pub(telemetry.NoState, in.Index, pkt.Src, g, 0)
			return
		}
		// Relay toward the core until an on-tree router takes over.
		rt, ok := r.RPF.Lookup(core)
		if !ok || rt.Iface == in {
			r.Metrics.Inc(metrics.DataDropped)
			r.Pub(telemetry.RPFDrop, in.Index, pkt.Src, g, 0)
			return
		}
		fwd, live := pkt.Forwarded()
		if !live {
			return
		}
		nextHop := rt.NextHop
		if nextHop == 0 {
			nextHop = core
		}
		r.Forward(rt.Iface, fwd, nextHop, pkt.Src, 0)
		return
	}
	// On-tree dissemination: loop safety comes from the tree structure —
	// a packet entering on one tree interface leaves on all others only.
	fwd, live := pkt.Forwarded()
	if !live {
		return
	}
	if st.parentIf != nil && st.parentAddr != 0 {
		r.forwardOn(st.parentIf, in, fwd, st.parentAddr)
	}
	for _, e := range st.children {
		r.forwardOn(e.ifc, in, fwd, e.hop)
	}
	// A member LAN that is also the parent's or a child's interface is
	// already covered. Both lists are in interface order, so one cursor into
	// children finds out.
	k := 0
	for _, m := range st.memberIfs {
		for k < len(st.children) && st.children[k].ifc.Index < m.ifc.Index {
			k++
		}
		if m.ifc != st.parentIf && (k == len(st.children) || st.children[k].ifc != m.ifc) {
			r.forwardOn(m.ifc, in, fwd, 0)
		}
	}
}

// forwardOn sends fwd over one tree edge, unless that is where the packet
// came in or the interface is down — tested per packet, not kept as state.
func (r *Router) forwardOn(ifc, in *netsim.Iface, fwd *packet.Packet, hop addr.IP) {
	if ifc != in && ifc.Up() {
		r.Forward(ifc, fwd, hop, fwd.Src, 0)
	}
}

// compare orders edges by (interface index, hop), the order every edge list
// is kept in.
func (e edge) compare(o edge) int {
	if c := cmp.Compare(e.ifc.Index, o.ifc.Index); c != 0 {
		return c
	}
	return cmp.Compare(e.hop, o.hop)
}

func hasEdge(list []edge, e edge) bool {
	_, found := slices.BinarySearchFunc(list, e, edge.compare)
	return found
}

// addEdge inserts e at its sorted place in list; a present e is left alone.
func addEdge(list []edge, e edge) []edge {
	i, found := slices.BinarySearchFunc(list, e, edge.compare)
	if found {
		return list
	}
	return slices.Insert(list, i, e)
}

// dropEdge removes e from list if present.
func dropEdge(list []edge, e edge) []edge {
	i, found := slices.BinarySearchFunc(list, e, edge.compare)
	if !found {
		return list
	}
	return slices.Delete(list, i, i+1)
}

func (r *Router) sendTo(ifc *netsim.Iface, to addr.IP, m *Message) {
	if ifc == nil || !ifc.Up() {
		return
	}
	r.Enc.Buf = m.MarshalTo(r.Enc.Buf[:0])
	r.Node.Send(ifc, r.Enc.Packet(ifc.Addr, to, packet.ProtoCBT, 1), to)
}
