package tracefmt

import (
	"strings"
	"testing"

	"pim/internal/netsim"

	"pim/internal/addr"
	"pim/internal/cbt"
	"pim/internal/dvmrp"
	"pim/internal/igmp"
	"pim/internal/packet"
	"pim/internal/pimmsg"
)

func mk(proto byte, payload []byte) *packet.Packet {
	return packet.New(addr.V4(10, 0, 0, 1), addr.V4(225, 0, 0, 1), proto, payload)
}

func TestDataRendering(t *testing.T) {
	got := Packet(mk(packet.ProtoUDP, make([]byte, 100)))
	if !strings.Contains(got, "DATA 100B") {
		t.Errorf("got %q", got)
	}
}

func TestIGMPRendering(t *testing.T) {
	for _, tc := range []struct {
		m    igmp.Message
		want string
	}{
		{igmp.Message{Type: igmp.TypeQuery}, "IGMP query"},
		{igmp.Message{Type: igmp.TypeReport, Group: addr.GroupForIndex(0)}, "IGMP report 225.0.0.0"},
		{igmp.Message{Type: igmp.TypeLeave, Group: addr.GroupForIndex(0)}, "IGMP leave"},
		{igmp.Message{Type: igmp.TypeRPMap, Group: addr.GroupForIndex(0), RPs: []addr.IP{1}}, "rp-map"},
	} {
		got := Packet(mk(packet.ProtoIGMP, tc.m.Marshal()))
		if !strings.Contains(got, tc.want) {
			t.Errorf("got %q, want substring %q", got, tc.want)
		}
	}
	if got := Packet(mk(packet.ProtoIGMP, []byte{1})); !strings.Contains(got, "malformed") {
		t.Errorf("malformed IGMP: %q", got)
	}
}

func TestPIMJoinPruneRendering(t *testing.T) {
	m := &pimmsg.JoinPrune{
		UpstreamNeighbor: addr.V4(10, 200, 0, 2),
		HoldTime:         180,
		Groups: []pimmsg.GroupRecord{{
			Group:  addr.GroupForIndex(0),
			Joins:  []pimmsg.Addr{{Addr: addr.V4(10, 0, 0, 9), WC: true, RP: true}},
			Prunes: []pimmsg.Addr{{Addr: addr.V4(10, 100, 1, 1), RP: true}},
		}},
	}
	got := Packet(mk(packet.ProtoPIM, pimmsg.Envelope(pimmsg.TypeJoinPrune, m.Marshal())))
	for _, want := range []string{"join/prune", "10.200.0.2", "join[10.0.0.9,WC,RP]", "prune[10.100.1.1,RP]"} {
		if !strings.Contains(got, want) {
			t.Errorf("got %q, want substring %q", got, want)
		}
	}
}

func TestPIMRegisterRendering(t *testing.T) {
	inner := packet.New(addr.V4(10, 100, 3, 1), addr.GroupForIndex(0), packet.ProtoUDP, make([]byte, 64))
	raw, _ := inner.Marshal()
	body := (&pimmsg.Register{Inner: raw}).Marshal()
	got := Packet(mk(packet.ProtoPIMData, pimmsg.Envelope(pimmsg.TypeRegister, body)))
	if !strings.Contains(got, "register [10.100.3.1 > 225.0.0.0 64B]") {
		t.Errorf("got %q", got)
	}
}

func TestPIMOtherTypes(t *testing.T) {
	cases := []struct {
		typ  byte
		body []byte
		want string
	}{
		{pimmsg.TypeQuery, (&pimmsg.Query{HoldTime: 105}).Marshal(), "PIM query"},
		{pimmsg.TypeRPReach, (&pimmsg.RPReach{Group: addr.GroupForIndex(0), RP: 9, HoldTime: 90}).Marshal(), "rp-reachability"},
		{pimmsg.TypeAssert, (&pimmsg.Assert{Group: addr.GroupForIndex(0), Source: 3, Metric: 7}).Marshal(), "assert"},
		{pimmsg.TypeMemberAd, (&pimmsg.MemberAd{Origin: 1, Seq: 2, Groups: []addr.IP{addr.GroupForIndex(0)}}).Marshal(), "member-ad from 0.0.0.1 seq=2 groups=[225.0.0.0]"},
		{pimmsg.TypeMemberAd, (&pimmsg.MemberAd{Origin: 1, Seq: 3, Consumer: true}).Marshal(), "member-ad solicit from 0.0.0.1 seq=3"},
		{pimmsg.TypeRPReport, (&pimmsg.RPReport{RP: 1, Seq: 2}).Marshal(), "rp-report"},
		{pimmsg.TypeGraft, (&pimmsg.JoinPrune{Groups: []pimmsg.GroupRecord{{Group: addr.GroupForIndex(0), Joins: []pimmsg.Addr{{Addr: 7}}}}}).Marshal(), "graft (0.0.0.7,225.0.0.0)"},
	}
	for _, tc := range cases {
		got := Packet(mk(packet.ProtoPIM, pimmsg.Envelope(tc.typ, tc.body)))
		if !strings.Contains(got, tc.want) {
			t.Errorf("type %d: got %q, want %q", tc.typ, got, tc.want)
		}
	}
}

func TestDVMRPAndCBTRendering(t *testing.T) {
	d := &dvmrp.Message{Type: dvmrp.TypePrune, Source: 5, Group: addr.GroupForIndex(0), Lifetime: 120}
	if got := Packet(mk(packet.ProtoDVMRP, d.Marshal())); !strings.Contains(got, "DVMRP prune") {
		t.Errorf("got %q", got)
	}
	c := &cbt.Message{Type: cbt.TypeJoinReq, Group: addr.GroupForIndex(0), Core: 9}
	if got := Packet(mk(packet.ProtoCBT, c.Marshal())); !strings.Contains(got, "CBT join-request") {
		t.Errorf("got %q", got)
	}
}

func TestRoutingAndUnknownRendering(t *testing.T) {
	if got := Packet(mk(packet.ProtoRIPSim, nil)); !strings.Contains(got, "RIP") {
		t.Errorf("got %q", got)
	}
	if got := Packet(mk(packet.ProtoLSSim, nil)); !strings.Contains(got, "LSA") {
		t.Errorf("got %q", got)
	}
	if got := Packet(mk(packet.ProtoMOSPF, nil)); !strings.Contains(got, "MOSPF") {
		t.Errorf("got %q", got)
	}
	if got := Packet(mk(99, []byte{1, 2})); !strings.Contains(got, "proto=99") {
		t.Errorf("got %q", got)
	}
}

// Rendering must never panic on arbitrary payload bytes for any protocol.
func TestRenderingNeverPanics(t *testing.T) {
	protos := []byte{packet.ProtoIGMP, packet.ProtoPIM, packet.ProtoPIMData,
		packet.ProtoUDP, packet.ProtoDVMRP, packet.ProtoCBT, 77}
	payloads := [][]byte{nil, {0}, {1, 3}, make([]byte, 64)}
	for _, proto := range protos {
		for _, pl := range payloads {
			_ = Packet(mk(proto, pl))
		}
	}
}

func netsimNew() *netsim.Network { return netsim.NewNetwork() }

type netsimTraceEvent = netsim.TraceEvent

func TestEventRendering(t *testing.T) {
	net := netsimNew()
	a := net.AddNode("a")
	b := net.AddNode("b")
	ia := net.AddIface(a, addr.V4(10, 0, 0, 1))
	ib := net.AddIface(b, addr.V4(10, 0, 0, 2))
	net.Connect(ia, ib, 1000)
	ev := netsimTraceEvent{
		At:   2_500_000,
		From: ia, To: ib,
		Pkt: mk(packet.ProtoUDP, make([]byte, 10)),
	}
	got := Event(ev)
	for _, want := range []string{"t=2.500s", "a/if0 -> b/if0", "DATA 10B"} {
		if !strings.Contains(got, want) {
			t.Errorf("Event() = %q, missing %q", got, want)
		}
	}
}
