// Package tracefmt renders simulated packets as human-readable protocol
// trace lines — the tcpdump of this repository. Every control protocol's
// payload is decoded (PIM join/prune lists with their WC/RP bits, registers
// with the inner datagram, IGMP reports, DVMRP prunes, CBT handshakes,
// routing advertisements), so `pimsim -trace` and debugging sessions show
// the protocol conversation rather than byte counts.
package tracefmt

import (
	"fmt"
	"strings"

	"pim/internal/cbt"
	"pim/internal/dvmrp"
	"pim/internal/igmp"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/pimmsg"
)

// Event renders one delivery trace event as a single line:
//
//	t=12.345s  r1/if0 -> r2/if1  PIM join/prune to 10.200.0.2: 225.0.0.1 join[10.0.0.9 WC RP]
func Event(ev netsim.TraceEvent) string {
	return fmt.Sprintf("t=%.3fs  %s -> %s  %s",
		ev.At.Seconds(), ev.From, ev.To, Packet(ev.Pkt))
}

// Packet renders a decoded one-line summary of any simulated packet.
func Packet(p *packet.Packet) string {
	body := payload(p)
	return fmt.Sprintf("%v > %v %s", p.Src, p.Dst, body)
}

func payload(p *packet.Packet) string {
	switch p.Protocol {
	case packet.ProtoUDP:
		return fmt.Sprintf("DATA %dB ttl=%d", len(p.Payload), p.TTL)
	case packet.ProtoIGMP:
		return igmpString(p.Payload)
	case packet.ProtoPIM, packet.ProtoPIMData:
		return pimString(p.Payload)
	case packet.ProtoDVMRP:
		return dvmrpString(p.Payload)
	case packet.ProtoCBT:
		return cbtString(p.Payload)
	case packet.ProtoRIPSim:
		return "RIP advertisement"
	case packet.ProtoLSSim:
		return "LSA flood"
	case packet.ProtoMOSPF:
		return "MOSPF membership LSA"
	default:
		return fmt.Sprintf("proto=%d %dB", p.Protocol, len(p.Payload))
	}
}

func igmpString(b []byte) string {
	m, err := igmp.Unmarshal(b)
	if err != nil {
		return "IGMP <malformed>"
	}
	switch m.Type {
	case igmp.TypeQuery:
		return "IGMP query"
	case igmp.TypeReport:
		return fmt.Sprintf("IGMP report %v", m.Group)
	case igmp.TypeLeave:
		return fmt.Sprintf("IGMP leave %v", m.Group)
	case igmp.TypeRPMap:
		return fmt.Sprintf("IGMP rp-map %v -> %v", m.Group, m.RPs)
	default:
		return fmt.Sprintf("IGMP type=%#x", m.Type)
	}
}

func pimString(b []byte) string {
	typ, body, err := pimmsg.Open(b)
	if err != nil {
		return "PIM <malformed>"
	}
	switch typ {
	case pimmsg.TypeQuery:
		return "PIM query"
	case pimmsg.TypeJoinPrune:
		m, err := pimmsg.UnmarshalJoinPrune(body)
		if err != nil {
			return "PIM join/prune <malformed>"
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "PIM join/prune to %v hold=%ds", m.UpstreamNeighbor, m.HoldTime)
		for _, g := range m.Groups {
			fmt.Fprintf(&sb, " %v", g.Group)
			if len(g.Joins) > 0 {
				fmt.Fprintf(&sb, " join%v", addrList(g.Joins))
			}
			if len(g.Prunes) > 0 {
				fmt.Fprintf(&sb, " prune%v", addrList(g.Prunes))
			}
		}
		return sb.String()
	case pimmsg.TypeRegister:
		m, err := pimmsg.UnmarshalRegister(body)
		if err != nil {
			return "PIM register <malformed>"
		}
		inner, err := packet.Unmarshal(m.Inner)
		if err != nil {
			return fmt.Sprintf("PIM register %dB <undecodable inner>", len(m.Inner))
		}
		return fmt.Sprintf("PIM register [%v > %v %dB]", inner.Src, inner.Dst, len(inner.Payload))
	case pimmsg.TypeRPReach:
		m, err := pimmsg.UnmarshalRPReach(body)
		if err != nil {
			return "PIM rp-reach <malformed>"
		}
		return fmt.Sprintf("PIM rp-reachability %v rp=%v hold=%ds", m.Group, m.RP, m.HoldTime)
	case pimmsg.TypeAssert:
		m, err := pimmsg.UnmarshalAssert(body)
		if err != nil {
			return "PIM assert <malformed>"
		}
		return fmt.Sprintf("PIM assert (%v,%v) metric=%d", m.Source, m.Group, m.Metric)
	case pimmsg.TypeGraft, pimmsg.TypeGraftAck:
		kind := "graft"
		if typ == pimmsg.TypeGraftAck {
			kind = "graft-ack"
		}
		m, err := pimmsg.UnmarshalJoinPrune(body)
		if err != nil {
			return "PIM " + kind + " <malformed>"
		}
		var parts []string
		for _, g := range m.Groups {
			for _, a := range g.Joins {
				parts = append(parts, fmt.Sprintf("(%v,%v)", a.Addr, g.Group))
			}
		}
		return fmt.Sprintf("PIM %s %s", kind, strings.Join(parts, " "))
	case pimmsg.TypeMemberAd:
		m, err := pimmsg.UnmarshalMemberAd(body)
		if err != nil {
			return "PIM member-ad <malformed>"
		}
		if m.Consumer {
			return fmt.Sprintf("PIM member-ad solicit from %v seq=%d", m.Origin, m.Seq)
		}
		return fmt.Sprintf("PIM member-ad from %v seq=%d groups=%v", m.Origin, m.Seq, m.Groups)
	case pimmsg.TypeRPReport:
		m, err := pimmsg.UnmarshalRPReport(body)
		if err != nil {
			return "PIM rp-report <malformed>"
		}
		return fmt.Sprintf("PIM rp-report rp=%v groups=%v", m.RP, m.Groups)
	default:
		return fmt.Sprintf("PIM type=%d", typ)
	}
}

func addrList(addrs []pimmsg.Addr) string {
	parts := make([]string, len(addrs))
	for i, a := range addrs {
		parts[i] = a.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func dvmrpString(b []byte) string {
	m, err := dvmrp.Unmarshal(b)
	if err != nil {
		return "DVMRP <malformed>"
	}
	switch m.Type {
	case dvmrp.TypeProbe:
		return "DVMRP probe"
	case dvmrp.TypePrune:
		return fmt.Sprintf("DVMRP prune (%v,%v) lifetime=%ds", m.Source, m.Group, m.Lifetime)
	case dvmrp.TypeGraft:
		return fmt.Sprintf("DVMRP graft (%v,%v)", m.Source, m.Group)
	case dvmrp.TypeGraftAck:
		return fmt.Sprintf("DVMRP graft-ack (%v,%v)", m.Source, m.Group)
	default:
		return fmt.Sprintf("DVMRP type=%d", m.Type)
	}
}

func cbtString(b []byte) string {
	m, err := cbt.Unmarshal(b)
	if err != nil {
		return "CBT <malformed>"
	}
	switch m.Type {
	case cbt.TypeJoinReq:
		return fmt.Sprintf("CBT join-request %v core=%v", m.Group, m.Core)
	case cbt.TypeJoinAck:
		return fmt.Sprintf("CBT join-ack %v core=%v", m.Group, m.Core)
	case cbt.TypeQuit:
		return fmt.Sprintf("CBT quit %v", m.Group)
	case cbt.TypeEchoReq:
		return fmt.Sprintf("CBT echo-request %v", m.Group)
	case cbt.TypeEchoReply:
		return fmt.Sprintf("CBT echo-reply %v", m.Group)
	case cbt.TypeFlush:
		return fmt.Sprintf("CBT flush %v", m.Group)
	default:
		return fmt.Sprintf("CBT type=%d", m.Type)
	}
}
