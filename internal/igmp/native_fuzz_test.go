package igmp

import (
	"bytes"
	"testing"

	"pim/internal/addr"
)

// FuzzUnmarshalInto: hostile bytes must decode or error cleanly; the RP count
// is a wire field, so the decoder must never hold more entries than the input
// has bytes for, and a reused scratch must not leak a previous message's RPs.
// Seeds are the four message shapes hosts and queriers put on the wire; under
// plain `go test` they run as unit tests.
func FuzzUnmarshalInto(f *testing.F) {
	for _, m := range []Message{
		{Type: TypeQuery},
		{Type: TypeReport, Group: 0xE1000001},
		{Type: TypeLeave, Group: 0xE1000001},
		{Type: TypeRPMap, Group: 0xE1000001, RPs: []addr.IP{0x0A000001, 0x0A000002}},
	} {
		f.Add(m.Marshal())
	}
	f.Add([]byte{})
	f.Add([]byte{TypeRPMap, 0, 0xFF, 0xFF, 225, 0, 0, 1, 10, 0, 0, 1}) // claims 65535 RPs, carries one
	f.Add([]byte{TypeReport, 0, 0, 1, 225, 0, 0, 1, 10, 0, 0, 1})      // RPs on a non-RPMap type
	f.Fuzz(func(t *testing.T, b []byte) {
		// A dirty scratch: stale RPs must not survive into the decode.
		m := Message{Type: 0xEE, Group: 9, RPs: []addr.IP{7, 7, 7}}
		if err := UnmarshalInto(&m, b); err != nil {
			return
		}
		if 8+4*len(m.RPs) > len(b) {
			t.Fatalf("decoded %d RPs from %d bytes", len(m.RPs), len(b))
		}
		if len(m.RPs) > 0 && m.Type != TypeRPMap {
			t.Fatalf("type %#x carries RPs", m.Type)
		}
		// Byte 1 is reserved and not carried by Message.
		want := append([]byte(nil), b[:8+4*len(m.RPs)]...)
		want[1] = 0
		if got := m.Marshal(); !bytes.Equal(got, want) {
			t.Fatalf("re-encode %x, want %x", got, want)
		}
	})
}
