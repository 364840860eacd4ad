package cbt

import (
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

// groupState is this router's node on one group's bidirectional tree.
type groupState struct {
	core       addr.IP
	onTree     bool
	parentIf   *netsim.Iface
	parentAddr addr.IP // 0 at the core
	// children maps iface index -> set of downstream router addresses
	// (a multi-access LAN can carry several children on one interface).
	children map[int]map[addr.IP]bool
	// memberIfs are interfaces with local IGMP members.
	memberIfs map[int]*netsim.Iface
	// pending are downstream joins awaiting our own ack.
	pending map[int]map[addr.IP]bool
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
		st = &groupState{
			core:      r.Cfg.CoreMapping[g],
			children:  map[int]map[addr.IP]bool{},
			memberIfs: map[int]*netsim.Iface{},
			pending:   map[int]map[addr.IP]bool{},
		}
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
	st.memberIfs[ifc.Index] = ifc
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
	delete(st.memberIfs, ifc.Index)
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
			if set := st.children[in.Index]; set != nil {
				delete(set, pkt.Src)
				if len(set) == 0 {
					delete(st.children, in.Index)
				}
			}
			r.maybeQuit(m.Group, st)
		}
	case TypeEchoReq:
		// The child echoing proves it received our join-ack.
		r.cancelAckRetry(m.Group, in.Index, pkt.Src)
		if st := r.groups[m.Group]; st != nil && st.onTree && st.children[in.Index][pkt.Src] {
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
		addToSet(st.children, in.Index, from)
		r.sendJoinAck(m.Group, in, from, m.Core)
		return
	}
	// Transit router: remember the requester, forward toward the core.
	addToSet(st.pending, in.Index, from)
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
	// Ack every waiting downstream joiner, in sorted order: acks are sends,
	// so their order must not follow map iteration.
	for _, idx := range sortedKeys(st.pending) {
		ifc := r.Node.Ifaces[idx]
		for _, child := range sortedAddrs(st.pending[idx]) {
			addToSet(st.children, idx, child)
			r.sendJoinAck(m.Group, ifc, child, st.core)
		}
	}
	st.pending = map[int]map[addr.IP]bool{}
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
		if st == nil || !st.onTree || !st.children[ifc.Index][child] {
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
	// Flush notifications are sends: walk child interfaces and addresses in
	// sorted order, not map order (the expireNeighbors bug class).
	for _, idx := range sortedKeys(st.children) {
		ifc := r.Node.Ifaces[idx]
		if !ifc.Up() {
			continue
		}
		for _, child := range sortedAddrs(st.children[idx]) {
			r.sendTo(ifc, child, &Message{Type: TypeFlush, Group: g})
		}
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
		r.Node.Send(rt.Iface, fwd, nextHop)
		r.Metrics.Inc(metrics.DataForwarded)
		r.Pub(telemetry.DataForward, rt.Iface.Index, pkt.Src, g, 0)
		return
	}
	// On-tree dissemination: loop safety comes from the tree structure —
	// a packet entering on one tree interface leaves on all others only.
	fwd, live := pkt.Forwarded()
	if !live {
		return
	}
	send := func(ifc *netsim.Iface, nextHop addr.IP) {
		if ifc == in || !ifc.Up() {
			return
		}
		r.Node.Send(ifc, fwd, nextHop)
		r.Metrics.Inc(metrics.DataForwarded)
		r.Pub(telemetry.DataForward, ifc.Index, pkt.Src, g, 0)
	}
	if st.parentIf != nil && st.parentAddr != 0 {
		send(st.parentIf, st.parentAddr)
	}
	// Data fan-out is a sequence of sends: walk children and member LANs in
	// sorted order so delivery (and any injected-loss draw consumption) does
	// not depend on map iteration.
	sentIface := map[int]bool{}
	for _, idx := range sortedKeys(st.children) {
		for _, child := range sortedAddrs(st.children[idx]) {
			send(r.Node.Ifaces[idx], child)
		}
		sentIface[idx] = true
	}
	for _, idx := range sortedKeys(st.memberIfs) {
		if !sentIface[idx] && (st.parentIf == nil || idx != st.parentIf.Index) {
			send(st.memberIfs[idx], 0)
			sentIface[idx] = true
		}
	}
}

// sortedKeys returns the interface indexes of m in ascending order, so that
// sends fanned out over a map never follow map iteration order.
func sortedKeys[V any](m map[int]V) []int {
	idxs := make([]int, 0, len(m))
	for idx := range m {
		idxs = append(idxs, idx)
	}
	slices.Sort(idxs)
	return idxs
}

// sortedAddrs returns the members of set in ascending address order.
func sortedAddrs(set map[addr.IP]bool) []addr.IP {
	as := make([]addr.IP, 0, len(set))
	for a := range set {
		as = append(as, a)
	}
	slices.Sort(as)
	return as
}

func addToSet(m map[int]map[addr.IP]bool, idx int, a addr.IP) {
	if m[idx] == nil {
		m[idx] = map[addr.IP]bool{}
	}
	m[idx][a] = true
}

func (r *Router) sendTo(ifc *netsim.Iface, to addr.IP, m *Message) {
	if ifc == nil || !ifc.Up() {
		return
	}
	r.Enc.Buf = m.MarshalTo(r.Enc.Buf[:0])
	r.Node.Send(ifc, r.Enc.Packet(ifc.Addr, to, packet.ProtoCBT, 1), to)
}
