package core

import (
	"pim/internal/addr"
	"pim/internal/metrics"
	"pim/internal/mfib"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/pimmsg"
	"pim/internal/telemetry"
	"pim/internal/unicast"
)

// handleData is the §3.5 data plane: incoming-interface check, forwarding
// over live outgoing interfaces, the two shared-tree→SPT transition
// exception rules, sender-side registering, and receiver-side SPT
// switching.
func (r *Router) handleData(in *netsim.Iface, pkt *packet.Packet) {
	g := pkt.Dst
	if !g.IsMulticast() {
		r.forwardUnicast(pkt)
		return
	}
	if g.IsLinkLocalMulticast() {
		return
	}
	s := pkt.Src
	// Sender side (§3): if the source is a directly-connected host and we
	// are the DR for its subnet, announce it to the RP(s) with registers.
	if r.sourceIsLocal(in, s) && r.IsDR(in) {
		r.senderSide(in, s, g, pkt)
	}
	r.forwardData(in, pkt)
}

// sourceIsLocal reports whether s lives on the subnet of the arrival
// interface.
func (r *Router) sourceIsLocal(in *netsim.Iface, s addr.IP) bool {
	return in.Addr != 0 && unicast.LinkPrefix(in.Addr).Contains(s)
}

// senderSide sends a register (the data packet encapsulated, §3) to every
// RP that has not yet built native (S,G) state through us ("each source
// registers and sends data packets toward each of the RPs", §3.9).
func (r *Router) senderSide(in *netsim.Iface, s, g addr.IP, pkt *packet.Packet) {
	rps := r.RPsFor(g)
	if len(rps) == 0 {
		return
	}
	now := r.Now()
	sg := r.MFIB.SG(r.sourceKey(s), g)
	// With a single RP, any live (S,G) branch means that RP has joined and
	// native forwarding works; the per-interface check below would be
	// fooled by equal-cost-path asymmetry (the RP's join can arrive on a
	// different interface than our route toward the RP).
	nativeServed := sg != nil && len(rps) == 1 && !sg.OIFEmpty(now)
	for _, rp := range rps {
		if r.Node.OwnsAddr(rp) {
			// We are the RP and the DR: rendezvous locally, no message.
			r.rpAcceptSource(r.sourceKey(s), g, in)
			continue
		}
		rt, ok := r.RPF.Lookup(rp)
		if !ok {
			continue
		}
		// Registers stop once the RP's join built (S,G) state that pulls
		// native data out the interface toward that RP.
		if nativeServed || (sg != nil && sg.HasOIF(rt.Iface, now)) {
			continue
		}
		var err error
		r.s.regInner, err = pkt.MarshalTo(r.s.regInner[:0])
		if err != nil {
			continue
		}
		r.Enc.Buf = pimmsg.AppendEnvelope(r.Enc.Buf[:0], pimmsg.TypeRegister)
		r.Enc.Buf = (&pimmsg.Register{Inner: r.s.regInner}).MarshalTo(r.Enc.Buf)
		nextHop := rt.NextHop
		if nextHop == 0 {
			nextHop = rp
		}
		r.Node.Send(rt.Iface, r.Enc.Packet(in.Addr, rp, packet.ProtoPIMData, packet.DefaultTTL), nextHop)
		r.Metrics.Inc(metrics.CtrlRegister)
		r.Pub(telemetry.RegisterSend, rt.Iface.Index, r.sourceKey(s), g, 0)
	}
}

// forwardData applies the §3.5 forwarding rules to a multicast datagram.
func (r *Router) forwardData(in *netsim.Iface, pkt *packet.Packet) {
	s, g := r.sourceKey(pkt.Src), pkt.Dst
	wc := r.MFIB.Wildcard(g)
	sg := r.MFIB.SG(s, g)

	if sg != nil {
		iifMatch := in == sg.IIF || (sg.IIF == nil && r.sourceIsLocal(in, pkt.Src))
		if iifMatch {
			if !sg.SPTBit {
				r.upstream(sg, upEvent{kind: evSPTData})
			}
			r.emit(pkt, in, r.unionOIFs(sg, wc, s, in), false)
			return
		}
		if !sg.SPTBit && wc != nil && (in == wc.IIF || wc.IIF == nil) {
			// §3.5 exception 1: during the transition the packet is
			// forwarded according to (*,G).
			r.emit(pkt, in, r.sharedOIFs(wc, s, in), true)
			return
		}
		r.Metrics.Inc(metrics.DataDropped)
		r.Pub(telemetry.RPFDrop, in.Index, s, g, 0)
		return
	}

	if wc != nil {
		atRP := wc.IIF == nil
		if in == wc.IIF || atRP {
			r.emit(pkt, in, r.sharedOIFs(wc, s, in), true)
			r.considerSPTSwitch(in, s, g, wc)
			return
		}
		r.Metrics.Inc(metrics.DataDropped)
		r.Pub(telemetry.RPFDrop, in.Index, s, g, 0)
		return
	}
	r.Metrics.Inc(metrics.DataNoState)
	r.Pub(telemetry.NoState, ifaceIndex(in), s, g, 0)
}

// ifaceIndex is the telemetry interface field: the index, or -1 for none.
func ifaceIndex(ifc *netsim.Iface) int {
	if ifc == nil {
		return -1
	}
	return ifc.Index
}

// sharedOIFs is the (*,G) outgoing list minus effective negative-cache
// prunes for s (§3.3 fn. 11), computed into the chassis fan-out scratch.
func (r *Router) sharedOIFs(wc *mfib.Entry, s addr.IP, except *netsim.Iface) []*netsim.Iface {
	r.Fanout = mfib.AppendShared(r.Fanout[:0], wc, r.MFIB.SGRpt(s, wc.Key.Group), r.Now(), except)
	return r.Fanout
}

// unionOIFs is the (S,G) list united with the inherited shared-tree list —
// the race-free equivalent of §3.3's copy-at-creation (DESIGN.md §4).
func (r *Router) unionOIFs(sg, wc *mfib.Entry, s addr.IP, except *netsim.Iface) []*netsim.Iface {
	var rpt *mfib.Entry
	if wc != nil {
		rpt = r.MFIB.SGRpt(s, wc.Key.Group)
	}
	r.Fanout = mfib.AppendUnion(r.Fanout[:0], sg, wc, rpt, r.Now(), except)
	return r.Fanout
}

// emit transmits the packet over each outgoing interface with a TTL
// decrement. shared marks forwarding off the (*,G) list — the list
// negative-cache subtraction applies to — so the invariant checker can
// assert no pruned interface appears in the fan-out.
func (r *Router) emit(pkt *packet.Packet, in *netsim.Iface, oifs []*netsim.Iface, shared bool) {
	if len(oifs) == 0 {
		return
	}
	fwd, ok := pkt.Forwarded()
	if !ok {
		return
	}
	s := r.sourceKey(pkt.Src)
	var sharedFlag int64
	if shared {
		sharedFlag = 1
	}
	for _, out := range oifs {
		if out == in {
			continue
		}
		r.Forward(out, fwd, 0, s, sharedFlag)
	}
}

// considerSPTSwitch applies the §3.3 receiver-side policy: a router with
// directly-connected members seeing shared-tree traffic from a source it
// has no (S,G) state for may join that source's shortest-path tree.
func (r *Router) considerSPTSwitch(in *netsim.Iface, s, g addr.IP, wc *mfib.Entry) {
	if r.Cfg.SPTPolicy == SwitchNever {
		return
	}
	if !r.hasLocalMember(wc) {
		return
	}
	if s == 0 || r.MFIB.SG(s, g) != nil {
		return
	}
	now := r.Now()
	if r.Cfg.SPTPolicy == SwitchThreshold {
		k := mfib.Key{Source: s, Group: g}
		c := r.sptCount[k]
		if c == nil || now-c.windowStart > r.Cfg.SPTWindow {
			c = &sptCounter{windowStart: now}
			r.sptCount[k] = c
		}
		c.packets++
		if c.packets < r.Cfg.SPTPackets {
			return
		}
		delete(r.sptCount, k)
	}
	r.initiateSPTSwitch(s, g, wc)
}

func (r *Router) hasLocalMember(e *mfib.Entry) bool {
	for i := 0; i < e.OIFCount(); i++ {
		if e.OIFAt(i).LocalMember {
			return true
		}
	}
	return false
}

// initiateSPTSwitch creates the (Sn,G) entry with a cleared SPT bit, copies
// the shared-tree outgoing interfaces ("all local shared tree branches are
// replicated in the new shortest path tree", §3.3), and sends a join toward
// the source.
func (r *Router) initiateSPTSwitch(s, g addr.IP, wc *mfib.Entry) {
	now := r.Now()
	iif, up, ok := r.rpf(s)
	if !ok || up == 0 {
		return // no route toward the source, or it is directly connected
	}
	sg, created := r.upsert(mfib.Key{Source: s, Group: g}, now)
	if !created {
		return
	}
	sg.RP = wc.RP
	sg.IIF, sg.UpstreamNeighbor = iif, up
	r.Pub(telemetry.IIFSet, iif.Index, s, g, entryKind(sg.Key))
	r.Pub(telemetry.SPTSwitch, -1, s, g, 0)
	// "All local shared tree branches are replicated in the new shortest
	// path tree" (§3.3): the local-member interfaces move over; downstream
	// join-driven branches keep receiving through the inherited shared
	// list until they switch themselves.
	for i := 0; i < wc.OIFCount(); i++ {
		if o := wc.OIFAt(i); o.LocalMember && o.Iface != iif {
			sg.AddLocalOIF(o.Iface)
		}
	}
	r.upstream(sg, upEvent{kind: evSPTJoin, created: true})
}
