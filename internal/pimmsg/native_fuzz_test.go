package pimmsg

import (
	"slices"
	"testing"

	"pim/internal/addr"
)

type addrAlias = addr.IP

// Native fuzz targets: `go test -fuzz=FuzzOpen ./internal/pimmsg` explores
// the decoders; under plain `go test` the seed corpus below runs as unit
// tests.

func FuzzOpen(f *testing.F) {
	m := &JoinPrune{UpstreamNeighbor: 1, HoldTime: 180,
		Groups: []GroupRecord{{Group: 0xE1000000, Joins: []Addr{{Addr: 2, WC: true, RP: true}}}}}
	f.Add(Envelope(TypeJoinPrune, m.Marshal()))
	f.Add(Envelope(TypeRegister, (&Register{Inner: []byte{1, 2, 3}}).Marshal()))
	f.Add(Envelope(TypeRPReach, (&RPReach{Group: 0xE1000000, RP: 9, HoldTime: 90}).Marshal()))
	f.Add(Envelope(TypeMemberAd, (&MemberAd{Origin: 1, Seq: 2, Groups: []addrAlias{0xE1000000}}).Marshal()))
	f.Add(Envelope(TypeMemberAd, (&MemberAd{Origin: 1, Seq: 3, Consumer: true}).Marshal()))
	f.Add(Envelope(TypeMemberAd, (&MemberAd{Origin: 1, Seq: 4, Consumer: true, Groups: []addrAlias{0xE1000000, 0xE1000001}}).Marshal()))
	// Count-field lies: the flag bit alone, all bits, and a flagged count
	// one past the groups present.
	f.Add(Envelope(TypeMemberAd, []byte{0, 0, 0, 1, 0, 0, 0, 1, 0x80, 0}))
	f.Add(Envelope(TypeMemberAd, []byte{0, 0, 0, 1, 0, 0, 0, 1, 0xff, 0xff}))
	f.Add(Envelope(TypeMemberAd, []byte{0, 0, 0, 1, 0, 0, 0, 1, 0x80, 2, 0xE1, 0, 0, 0}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		typ, body, err := Open(b)
		if err != nil {
			return
		}
		switch typ {
		case TypeJoinPrune, TypeGraft, TypeGraftAck:
			if m, err := UnmarshalJoinPrune(body); err == nil {
				// Re-encoding a decoded message must decode again.
				if _, err := UnmarshalJoinPrune(m.Marshal()); err != nil {
					t.Fatalf("re-encode failed: %v", err)
				}
			}
		case TypeRegister:
			_, _ = UnmarshalRegister(body)
		case TypeRPReach:
			_, _ = UnmarshalRPReach(body)
		case TypeQuery:
			_, _ = UnmarshalQuery(body)
		case TypeAssert:
			_, _ = UnmarshalAssert(body)
		case TypeMemberAd:
			// The scratch decoder, run over a message that already holds
			// something else, must agree with the allocating one.
			into := MemberAd{Origin: 9, Seq: 9, Consumer: true, Groups: []addrAlias{1, 2, 3}}
			m, err := UnmarshalMemberAd(body)
			errInto := UnmarshalMemberAdInto(&into, body)
			if (err == nil) != (errInto == nil) {
				t.Fatalf("decoders disagree: %v vs %v", err, errInto)
			}
			if err != nil {
				return
			}
			if m.Origin != into.Origin || m.Seq != into.Seq || m.Consumer != into.Consumer || !slices.Equal(m.Groups, into.Groups) {
				t.Fatalf("decoders disagree: %+v vs %+v", m, into)
			}
			if again, err := UnmarshalMemberAd(m.Marshal()); err != nil || again.Consumer != m.Consumer || !slices.Equal(again.Groups, m.Groups) {
				t.Fatalf("re-encode of %+v decoded as %+v, %v", m, again, err)
			}
		case TypeRPReport:
			_, _ = UnmarshalRPReport(body)
		}
	})
}
