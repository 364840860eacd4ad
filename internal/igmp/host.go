package igmp

import (
	"pim/internal/addr"
	"pim/internal/netsim"
	"pim/internal/packet"
)

// Host is the host side of IGMP for one single-homed node: it answers
// queries with membership reports (with LAN report suppression), sends
// unsolicited reports on join and leaves on leave, and optionally pushes
// group→RP mappings (the paper's proposed host message).
type Host struct {
	Node  *netsim.Node
	Iface *netsim.Iface
	// ReportDelayWindow spreads query responses to allow suppression.
	ReportDelayWindow netsim.Time

	joined  map[addr.IP][]addr.IP // group -> RPs to advertise (may be nil)
	pending map[addr.IP]*netsim.Timer
	// OnData receives multicast data packets for joined groups.
	OnData func(group addr.IP, pkt *packet.Packet)
	// Received counts data packets per group, for experiment assertions.
	Received map[addr.IP]int

	// enc is the reusable report/leave encode workspace: safe because
	// Node.Send copies the payload into its transmit frame before returning. dec is the decode scratch, valid
	// only within one handleIGMP call.
	enc packet.Scratch
	dec Message
}

// NewHost attaches host-side IGMP to a node's single interface.
func NewHost(nd *netsim.Node, ifc *netsim.Iface) *Host {
	h := &Host{
		Node:              nd,
		Iface:             ifc,
		ReportDelayWindow: 10 * netsim.Second,
		joined:            map[addr.IP][]addr.IP{},
		pending:           map[addr.IP]*netsim.Timer{},
		Received:          map[addr.IP]int{},
	}
	nd.Handle(packet.ProtoIGMP, netsim.HandlerFunc(h.handleIGMP))
	nd.Handle(packet.ProtoUDP, netsim.HandlerFunc(h.handleData))
	return h
}

// Join makes the host a member of the group, optionally advertising the
// given RPs to the local router, and sends an unsolicited report.
func (h *Host) Join(g addr.IP, rps ...addr.IP) {
	h.joined[g] = rps
	// The RP mapping must precede the report so the DR can classify the
	// group as sparse-mode when the membership callback fires (§3.1).
	if len(rps) > 0 {
		h.sendRPMap(g, rps)
	}
	h.sendReport(g)
}

// Leave withdraws membership and sends a leave message.
func (h *Host) Leave(g addr.IP) {
	if _, ok := h.joined[g]; !ok {
		return
	}
	delete(h.joined, g)
	if tm := h.pending[g]; tm != nil {
		tm.Stop()
		delete(h.pending, g)
	}
	msg := Message{Type: TypeLeave, Group: g}
	h.enc.Buf = msg.MarshalTo(h.enc.Buf[:0])
	h.Node.Send(h.Iface, h.enc.Packet(h.Iface.Addr, addr.AllRouters, packet.ProtoIGMP, 1), 0)
}

// Member reports whether the host currently belongs to g.
func (h *Host) Member(g addr.IP) bool {
	_, ok := h.joined[g]
	return ok
}

func (h *Host) sendReport(g addr.IP) {
	msg := Message{Type: TypeReport, Group: g}
	// Reports are addressed to the group itself (RFC 1112) so other
	// members on the LAN can suppress their own.
	h.enc.Buf = msg.MarshalTo(h.enc.Buf[:0])
	h.Node.Send(h.Iface, h.enc.Packet(h.Iface.Addr, g, packet.ProtoIGMP, 1), 0)
}

func (h *Host) sendRPMap(g addr.IP, rps []addr.IP) {
	msg := Message{Type: TypeRPMap, Group: g, RPs: rps}
	h.enc.Buf = msg.MarshalTo(h.enc.Buf[:0])
	h.Node.Send(h.Iface, h.enc.Packet(h.Iface.Addr, addr.AllRouters, packet.ProtoIGMP, 1), 0)
}

func (h *Host) handleIGMP(in *netsim.Iface, pkt *packet.Packet) {
	m := &h.dec
	if err := UnmarshalInto(m, pkt.Payload); err != nil {
		return
	}
	switch m.Type {
	case TypeQuery:
		// Schedule a spread-out report per joined group; a deterministic
		// per-host offset substitutes for the RFC's random delay.
		for g := range h.joined {
			if h.pending[g] != nil && h.pending[g].Active() {
				continue
			}
			g := g
			// Knuth multiplicative hash spreads per-host delays across the
			// window so the earliest report lands well before the others
			// fire and suppression has time to act.
			mix := (uint64(h.Iface.Addr)*2654435761 + uint64(g)) * 0x9E3779B97F4A7C15
			delay := netsim.Time(mix % uint64(h.ReportDelayWindow))
			h.pending[g] = h.Node.Sched().After(delay, func() {
				if _, still := h.joined[g]; still {
					h.sendReport(g)
					if rps := h.joined[g]; len(rps) > 0 {
						h.sendRPMap(g, rps)
					}
				}
			})
		}
	case TypeReport:
		// Suppression: someone else reported this group on our LAN.
		if _, ok := h.joined[m.Group]; ok {
			if tm := h.pending[m.Group]; tm != nil && tm.Active() {
				tm.Stop()
			}
		}
	}
}

func (h *Host) handleData(in *netsim.Iface, pkt *packet.Packet) {
	g := pkt.Dst
	if !g.IsMulticast() {
		return
	}
	if _, ok := h.joined[g]; !ok {
		return
	}
	h.Received[g]++
	if h.OnData != nil {
		h.OnData(g, pkt)
	}
}
