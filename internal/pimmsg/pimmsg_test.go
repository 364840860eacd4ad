package pimmsg

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"

	"pim/internal/addr"
)

func TestJoinPruneRoundTrip(t *testing.T) {
	m := &JoinPrune{
		UpstreamNeighbor: addr.V4(10, 200, 0, 2),
		HoldTime:         180,
		Groups: []GroupRecord{
			{
				Group:  addr.GroupForIndex(0),
				Joins:  []Addr{{Addr: addr.V4(10, 0, 0, 9), WC: true, RP: true}},
				Prunes: nil,
			},
			{
				Group:  addr.GroupForIndex(1),
				Joins:  []Addr{{Addr: addr.V4(10, 100, 1, 1)}},
				Prunes: []Addr{{Addr: addr.V4(10, 100, 2, 1), RP: true}},
			},
		},
	}
	got, err := UnmarshalJoinPrune(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.UpstreamNeighbor != m.UpstreamNeighbor || got.HoldTime != m.HoldTime {
		t.Fatalf("header: %+v", got)
	}
	if len(got.Groups) != 2 {
		t.Fatalf("groups: %d", len(got.Groups))
	}
	g1 := got.Groups[0]
	if g1.Group != m.Groups[0].Group || len(g1.Joins) != 1 || len(g1.Prunes) != 0 {
		t.Fatalf("group 0: %+v", g1)
	}
	if !g1.Joins[0].WC || !g1.Joins[0].RP {
		t.Error("WC/RP bits lost")
	}
	g2 := got.Groups[1]
	if g2.Joins[0].WC || g2.Joins[0].RP {
		t.Error("spurious flags on plain SPT join")
	}
	if !g2.Prunes[0].RP || g2.Prunes[0].WC {
		t.Error("negative-cache prune flags wrong")
	}
}

func TestJoinPruneRoundTripProperty(t *testing.T) {
	f := func(up uint32, hold uint16, groups []uint32, addrs []uint32, flags []uint8) bool {
		m := &JoinPrune{UpstreamNeighbor: addr.IP(up), HoldTime: hold}
		ai := 0
		for _, g := range groups {
			if len(m.Groups) == 8 {
				break
			}
			rec := GroupRecord{Group: addr.IP(g)}
			for ai < len(addrs) && ai < len(flags) && len(rec.Joins) < 4 {
				a := Addr{Addr: addr.IP(addrs[ai]), WC: flags[ai]&1 != 0, RP: flags[ai]&2 != 0}
				if flags[ai]&4 != 0 {
					rec.Prunes = append(rec.Prunes, a)
				} else {
					rec.Joins = append(rec.Joins, a)
				}
				ai++
			}
			m.Groups = append(m.Groups, rec)
		}
		got, err := UnmarshalJoinPrune(m.Marshal())
		if err != nil {
			return false
		}
		if got.UpstreamNeighbor != m.UpstreamNeighbor || got.HoldTime != m.HoldTime ||
			len(got.Groups) != len(m.Groups) {
			return false
		}
		for i, g := range m.Groups {
			h := got.Groups[i]
			if h.Group != g.Group || len(h.Joins) != len(g.Joins) || len(h.Prunes) != len(g.Prunes) {
				return false
			}
			for j := range g.Joins {
				if h.Joins[j] != g.Joins[j] {
					return false
				}
			}
			for j := range g.Prunes {
				if h.Prunes[j] != g.Prunes[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestJoinPruneMalformed(t *testing.T) {
	cases := [][]byte{
		{},
		make([]byte, 7),
		// one group claimed, no group data
		{0, 0, 0, 1, 0, 60, 0, 1},
		// group with 2 joins but only 1 present
		append([]byte{0, 0, 0, 1, 0, 60, 0, 1}, []byte{225, 0, 0, 0, 0, 2, 0, 0, 1, 2, 3, 4, 0}...),
	}
	for i, b := range cases {
		if _, err := UnmarshalJoinPrune(b); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestRegisterRoundTrip(t *testing.T) {
	inner := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x42}
	m := &Register{Inner: inner}
	got, err := UnmarshalRegister(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Inner, inner) {
		t.Fatalf("inner = %x", got.Inner)
	}
	if wire := m.MarshalTo(AppendEnvelope(nil, TypeRegister)); len(wire) != RegisterOverhead+len(inner) {
		t.Errorf("a Register around %d bytes is %d on the wire, RegisterOverhead says %d", len(inner), len(wire), RegisterOverhead+len(inner))
	}
	if _, err := UnmarshalRegister([]byte{0}); err == nil {
		t.Error("short register accepted")
	}
	if _, err := UnmarshalRegister([]byte{0, 9, 1}); err == nil {
		t.Error("truncated inner accepted")
	}
}

func TestRegisterEmptyInner(t *testing.T) {
	got, err := UnmarshalRegister((&Register{}).Marshal())
	if err != nil || len(got.Inner) != 0 {
		t.Fatalf("empty register: %v %v", got, err)
	}
}

func TestRPReachRoundTrip(t *testing.T) {
	m := &RPReach{Group: addr.GroupForIndex(7), RP: addr.V4(10, 0, 0, 3), HoldTime: 90}
	got, err := UnmarshalRPReach(m.Marshal())
	if err != nil || *got != *m {
		t.Fatalf("got %+v err %v", got, err)
	}
	if _, err := UnmarshalRPReach(make([]byte, 9)); err == nil {
		t.Error("short RPReach accepted")
	}
}

func TestQueryRoundTrip(t *testing.T) {
	m := &Query{HoldTime: 105}
	got, err := UnmarshalQuery(m.Marshal())
	if err != nil || got.HoldTime != 105 {
		t.Fatalf("got %+v err %v", got, err)
	}
	if _, err := UnmarshalQuery([]byte{1}); err == nil {
		t.Error("short query accepted")
	}
}

func TestAssertRoundTrip(t *testing.T) {
	m := &Assert{Group: addr.GroupForIndex(2), Source: addr.V4(10, 100, 0, 1), Metric: 777}
	got, err := UnmarshalAssert(m.Marshal())
	if err != nil || *got != *m {
		t.Fatalf("got %+v err %v", got, err)
	}
	if _, err := UnmarshalAssert(make([]byte, 11)); err == nil {
		t.Error("short assert accepted")
	}
}

func TestEnvelope(t *testing.T) {
	body := []byte{1, 2, 3}
	env := Envelope(TypeJoinPrune, body)
	typ, got, err := Open(env)
	if err != nil || typ != TypeJoinPrune || !bytes.Equal(got, body) {
		t.Fatalf("Open: %d %x %v", typ, got, err)
	}
	if _, _, err := Open([]byte{Version}); err == nil {
		t.Error("short envelope accepted")
	}
	if _, _, err := Open([]byte{99, TypeQuery}); err == nil {
		t.Error("bad version accepted")
	}
}

func TestAddrString(t *testing.T) {
	a := Addr{Addr: addr.V4(10, 0, 0, 1), WC: true, RP: true}
	if a.String() != "10.0.0.1,WC,RP" {
		t.Errorf("String = %q", a.String())
	}
}

func BenchmarkJoinPruneMarshal(b *testing.B) {
	m := &JoinPrune{UpstreamNeighbor: addr.V4(10, 0, 0, 1), HoldTime: 180}
	for i := 0; i < 10; i++ {
		m.Groups = append(m.Groups, GroupRecord{
			Group:  addr.GroupForIndex(i),
			Joins:  []Addr{{Addr: addr.V4(10, 0, 0, 9), WC: true, RP: true}},
			Prunes: []Addr{{Addr: addr.V4(10, 100, 1, 1), RP: true}},
		})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Marshal()
	}
}

func BenchmarkJoinPruneUnmarshal(b *testing.B) {
	m := &JoinPrune{UpstreamNeighbor: addr.V4(10, 0, 0, 1), HoldTime: 180}
	for i := 0; i < 10; i++ {
		m.Groups = append(m.Groups, GroupRecord{
			Group: addr.GroupForIndex(i),
			Joins: []Addr{{Addr: addr.V4(10, 0, 0, 9), WC: true, RP: true}},
		})
	}
	raw := m.Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := UnmarshalJoinPrune(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMemberAdRoundTrip(t *testing.T) {
	m := &MemberAd{Origin: addr.V4(10, 1, 0, 1), Seq: 9,
		Groups: []addr.IP{addr.GroupForIndex(0), addr.GroupForIndex(5)}}
	got, err := UnmarshalMemberAd(m.Marshal())
	if err != nil || got.Origin != m.Origin || got.Seq != m.Seq || len(got.Groups) != 2 {
		t.Fatalf("round trip: %+v %v", got, err)
	}
	for i := range m.Groups {
		if got.Groups[i] != m.Groups[i] {
			t.Fatal("group mismatch")
		}
	}
	empty := &MemberAd{Origin: 1, Seq: 2}
	got, err = UnmarshalMemberAd(empty.Marshal())
	if err != nil || len(got.Groups) != 0 {
		t.Fatalf("empty ad: %+v %v", got, err)
	}
	if _, err := UnmarshalMemberAd(make([]byte, 9)); err == nil {
		t.Error("short ad accepted")
	}
	if _, err := UnmarshalMemberAd([]byte{0, 0, 0, 1, 0, 0, 0, 1, 0, 3}); err == nil {
		t.Error("truncated group list accepted")
	}
}

// TestMemberAdConsumerFlag: the flag travels in the top bit of the count
// field, changes nothing else on the wire, and survives with or without
// groups beside it.
func TestMemberAdConsumerFlag(t *testing.T) {
	plain := &MemberAd{Origin: addr.V4(10, 1, 0, 1), Seq: 9, Groups: []addr.IP{addr.GroupForIndex(3)}}
	flagged := *plain
	flagged.Consumer = true
	pb, fb := plain.Marshal(), flagged.Marshal()
	if len(pb) != len(fb) || fb[8] != pb[8]|0x80 {
		t.Fatalf("flag is not the top bit of the count field: % x vs % x", pb, fb)
	}
	fb[8] &^= 0x80
	if !bytes.Equal(pb, fb) {
		t.Fatalf("flag changed other bytes: % x vs % x", pb, fb)
	}
	for _, m := range []*MemberAd{plain, &flagged, {Origin: 1, Seq: 2, Consumer: true}} {
		got, err := UnmarshalMemberAd(m.Marshal())
		if err != nil || got.Origin != m.Origin || got.Seq != m.Seq || got.Consumer != m.Consumer || !slices.Equal(got.Groups, m.Groups) {
			t.Errorf("round trip of %+v: %+v %v", m, got, err)
		}
	}
	// The flag is not part of the length: a flagged count still has to be
	// backed by that many groups.
	if _, err := UnmarshalMemberAd([]byte{0, 0, 0, 1, 0, 0, 0, 1, 0x80, 1}); err == nil {
		t.Error("flagged ad with a truncated group list accepted")
	}
}

// TestUnmarshalMemberAdInto: the scratch decoder accepts and rejects exactly
// what UnmarshalMemberAd does, overwrites every field of a reused message,
// leaves a rejected one's caller with an error rather than stale content
// taken for new, and allocates nothing once its Groups slice has grown.
func TestUnmarshalMemberAdInto(t *testing.T) {
	big := &MemberAd{Origin: 7, Seq: 1, Consumer: true,
		Groups: []addr.IP{addr.GroupForIndex(0), addr.GroupForIndex(1), addr.GroupForIndex(2)}}
	small := &MemberAd{Origin: 8, Seq: 2, Groups: []addr.IP{addr.GroupForIndex(9)}}
	var m MemberAd
	if err := UnmarshalMemberAdInto(&m, big.Marshal()); err != nil || !m.Consumer || len(m.Groups) != 3 {
		t.Fatalf("first decode: %+v %v", m, err)
	}
	if err := UnmarshalMemberAdInto(&m, small.Marshal()); err != nil ||
		m.Origin != 8 || m.Seq != 2 || m.Consumer || !slices.Equal(m.Groups, small.Groups) {
		t.Fatalf("reused decode kept stale fields: %+v %v", m, err)
	}
	for _, bad := range [][]byte{nil, make([]byte, 9), {0, 0, 0, 1, 0, 0, 0, 1, 0, 3}, {0, 0, 0, 1, 0, 0, 0, 1, 0x80, 1, 9, 9}} {
		_, errFresh := UnmarshalMemberAd(bad)
		if err := UnmarshalMemberAdInto(&m, bad); err == nil || errFresh == nil {
			t.Errorf("% x: accepted (into: %v, fresh: %v)", bad, err, errFresh)
		}
	}
	raw := big.Marshal()
	if allocs := testing.AllocsPerRun(100, func() { _ = UnmarshalMemberAdInto(&m, raw) }); allocs != 0 {
		t.Errorf("warm decode: %.0f allocs, want 0", allocs)
	}
}

func TestRPReportRoundTrip(t *testing.T) {
	m := &RPReport{RP: addr.V4(10, 0, 0, 7), Seq: 3,
		Groups: []addr.IP{addr.GroupForIndex(1), addr.GroupForIndex(2)}}
	got, err := UnmarshalRPReport(m.Marshal())
	if err != nil || got.RP != m.RP || got.Seq != m.Seq || len(got.Groups) != 2 {
		t.Fatalf("round trip: %+v %v", got, err)
	}
	if _, err := UnmarshalRPReport(make([]byte, 9)); err == nil {
		t.Error("short report accepted")
	}
	if _, err := UnmarshalRPReport([]byte{0, 0, 0, 1, 0, 0, 0, 1, 0, 2, 1, 1, 1, 1}); err == nil {
		t.Error("truncated group list accepted")
	}
}
