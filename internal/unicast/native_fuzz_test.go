package unicast

import (
	"reflect"
	"testing"

	"pim/internal/addr"
)

// FuzzLSAUnmarshal: hostile bytes must decode or error cleanly, and what
// decodes must survive a round trip: unmarshal(marshal(a)) is a again. Both
// counts are wire fields, so a count that claims more records than the
// bytes carry must be refused, never trusted. Seeds are the shapes
// TestLSARoundTrip floods and counts that lie about the length; under plain
// `go test` they run as unit tests.
func FuzzLSAUnmarshal(f *testing.F) {
	for _, a := range []lsa{
		{Origin: addr.V4(10, 0, 0, 1), Seq: 1},
		{
			Origin: addr.V4(10, 0, 0, 1),
			Seq:    77,
			Neighbors: []lsaNeighbor{
				{Local: addr.V4(10, 200, 0, 1), Peer: addr.V4(10, 200, 0, 2), Cost: 5},
				{Local: addr.V4(10, 200, 1, 1), Peer: addr.V4(10, 200, 1, 3), Cost: 9},
			},
			Prefixes: []addr.Prefix{addr.MustPrefix(addr.V4(10, 200, 0, 0), 24)},
		},
	} {
		f.Add(a.marshal())
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 1, 0xFF, 0xFF, 0, 0})                         // claims 65535 neighbours, carries none
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 2, 10, 200, 0, 0, 24})            // claims 2 prefixes, carries one
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 10, 200, 0, 0, 33})            // a prefix length over 32
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0xFF}) // a neighbour record cut short
	f.Fuzz(func(t *testing.T, b []byte) {
		var a lsa
		if err := a.unmarshal(b); err != nil {
			return
		}
		if 12+12*len(a.Neighbors)+5*len(a.Prefixes) > len(b) {
			t.Fatalf("decoded %d neighbours and %d prefixes from %d bytes", len(a.Neighbors), len(a.Prefixes), len(b))
		}
		var again lsa
		if err := again.unmarshal(a.marshal()); err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", a, err)
		}
		if !reflect.DeepEqual(again, a) {
			t.Fatalf("round trip %+v, want %+v", again, a)
		}
	})
}

// FuzzDVUnmarshal: hostile bytes must decode or error cleanly, never
// holding more entries than the bytes carry. Seeds are the shapes
// TestDVMessageRoundTrip and TestDVMessageInfinityEncoding send and counts
// that lie about the length.
func FuzzDVUnmarshal(f *testing.F) {
	for _, m := range []dvMessage{
		{},
		{Entries: []dvEntry{{Prefix: addr.MustPrefix(addr.V4(10, 200, 0, 0), 24), Metric: 3}}},
		{Entries: []dvEntry{
			{Prefix: addr.MustPrefix(addr.V4(10, 0, 0, 0), 8), Metric: InfMetric},
			{Prefix: addr.MustPrefix(0, 0), Metric: dvInfWire - 1},
		}},
	} {
		f.Add(m.marshal())
	}
	f.Add([]byte{0xFF, 0xFF})                        // claims 65535 entries, carries none
	f.Add([]byte{0, 2, 10, 0, 0, 0, 8, 0, 0, 0, 1})  // claims 2 entries, carries one
	f.Add([]byte{0, 1, 10, 0, 0, 0, 33, 0, 0, 0, 1}) // a prefix length over 32
	f.Fuzz(func(t *testing.T, b []byte) {
		var m dvMessage
		if err := m.unmarshal(b); err != nil {
			return
		}
		if 2+9*len(m.Entries) > len(b) {
			t.Fatalf("decoded %d entries from %d bytes", len(m.Entries), len(b))
		}
	})
}
