package igmp

import (
	"slices"

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
	// ReportDelayWindow spreads query responses to allow suppression; a
	// window ≤ 0 answers a query at once.
	ReportDelayWindow netsim.Time

	// joined is sorted by group, so a query's responses go out in group
	// order whatever the join order.
	joined []membership
	// OnData receives multicast data packets for joined groups.
	OnData func(group addr.IP, pkt *packet.Packet)
	// Received counts data packets per group, for experiment assertions.
	Received map[addr.IP]int

	// Enc is the reusable send workspace for reports, leaves and the
	// host's own data (scenario.SendData): safe because Node.Send copies
	// the payload into its transmit frame before returning. dec is the
	// decode scratch, valid only within one handleIGMP call.
	Enc packet.Scratch
	dec Message
}

// membership is one joined group: the RPs to advertise (may be nil) and
// the pending query response.
type membership struct {
	g       addr.IP
	rps     []addr.IP
	pending *netsim.Timer
}

// NewHost attaches host-side IGMP to a node's single interface.
func NewHost(nd *netsim.Node, ifc *netsim.Iface) *Host {
	h := &Host{
		Node:              nd,
		Iface:             ifc,
		ReportDelayWindow: 10 * netsim.Second,
		Received:          map[addr.IP]int{},
	}
	nd.Handle(packet.ProtoIGMP, netsim.HandlerFunc(h.handleIGMP))
	nd.Handle(packet.ProtoUDP, netsim.HandlerFunc(h.handleData))
	return h
}

// find returns g's index in joined, or where it would be inserted. It runs
// for every data packet the host receives, so it is written out:
// slices.BinarySearchFunc calls its comparator indirectly and took about
// 20 ns for a two-group host against 6 ns here (2-vCPU VM).
func (h *Host) find(g addr.IP) (int, bool) {
	i, j := 0, len(h.joined)
	for i < j {
		if m := (i + j) / 2; h.joined[m].g < g {
			i = m + 1
		} else {
			j = m
		}
	}
	return i, i < len(h.joined) && h.joined[i].g == g
}

// Join makes the host a member of the group, optionally advertising the
// given RPs to the local router, and sends an unsolicited report.
func (h *Host) Join(g addr.IP, rps ...addr.IP) {
	i, ok := h.find(g)
	if !ok {
		h.joined = slices.Insert(h.joined, i, membership{g: g})
	}
	h.joined[i].rps = rps
	// The RP mapping must precede the report so the DR can classify the
	// group as sparse-mode when the membership callback fires (§3.1).
	if len(rps) > 0 {
		h.sendRPMap(g, rps)
	}
	h.sendReport(g)
}

// Leave withdraws membership and sends a leave message.
func (h *Host) Leave(g addr.IP) {
	i, ok := h.find(g)
	if !ok {
		return
	}
	if tm := h.joined[i].pending; tm != nil {
		tm.Stop()
	}
	h.joined = slices.Delete(h.joined, i, i+1)
	msg := Message{Type: TypeLeave, Group: g}
	h.Enc.Buf = msg.MarshalTo(h.Enc.Buf[:0])
	h.Node.Send(h.Iface, h.Enc.Packet(h.Iface.Addr, addr.AllRouters, packet.ProtoIGMP, 1), 0)
}

// Member reports whether the host currently belongs to g.
func (h *Host) Member(g addr.IP) bool {
	_, ok := h.find(g)
	return ok
}

func (h *Host) sendReport(g addr.IP) {
	msg := Message{Type: TypeReport, Group: g}
	// Reports are addressed to the group itself (RFC 1112) so other
	// members on the LAN can suppress their own.
	h.Enc.Buf = msg.MarshalTo(h.Enc.Buf[:0])
	h.Node.Send(h.Iface, h.Enc.Packet(h.Iface.Addr, g, packet.ProtoIGMP, 1), 0)
}

func (h *Host) sendRPMap(g addr.IP, rps []addr.IP) {
	msg := Message{Type: TypeRPMap, Group: g, RPs: rps}
	h.Enc.Buf = msg.MarshalTo(h.Enc.Buf[:0])
	h.Node.Send(h.Iface, h.Enc.Packet(h.Iface.Addr, addr.AllRouters, packet.ProtoIGMP, 1), 0)
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
		for i := range h.joined {
			mb := &h.joined[i]
			if mb.pending != nil && mb.pending.Active() {
				continue
			}
			g := mb.g
			// Knuth multiplicative hash spreads per-host delays across the
			// window so the earliest report lands well before the others
			// fire and suppression has time to act. A window ≤ 0 answers at
			// once (mod 1).
			mix := (uint64(h.Iface.Addr)*2654435761 + uint64(g)) * 0x9E3779B97F4A7C15
			delay := netsim.Time(mix % uint64(max(h.ReportDelayWindow, 1)))
			mb.pending = h.Node.Sched().After(delay, func() {
				if j, still := h.find(g); still {
					h.sendReport(g)
					if rps := h.joined[j].rps; len(rps) > 0 {
						h.sendRPMap(g, rps)
					}
				}
			})
		}
	case TypeReport:
		// Suppression: someone else reported this group on our LAN.
		if i, ok := h.find(m.Group); ok && h.joined[i].pending != nil {
			h.joined[i].pending.Stop()
		}
	}
}

func (h *Host) handleData(in *netsim.Iface, pkt *packet.Packet) {
	g := pkt.Dst
	if !g.IsMulticast() {
		return
	}
	if !h.Member(g) {
		return
	}
	h.Received[g]++
	if h.OnData != nil {
		h.OnData(g, pkt)
	}
}
