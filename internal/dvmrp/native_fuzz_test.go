package dvmrp

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalInto: hostile bytes must decode or error cleanly, and whatever
// decodes must re-encode to the 12 bytes it came from. Seeds are the four
// message shapes a DVMRP router puts on the wire (router.go, codec); under
// plain `go test` they run as unit tests.
func FuzzUnmarshalInto(f *testing.F) {
	for _, m := range []Message{
		{Type: TypeProbe},
		{Type: TypePrune, Source: 0x0A640001, Group: 0xE1000001, Lifetime: 120},
		{Type: TypeGraft, Source: 0x0A640001, Group: 0xE1000001},
		{Type: TypeGraftAck, Source: 0x0A640001, Group: 0xE1000001},
	} {
		f.Add(m.Marshal())
	}
	f.Add([]byte{})
	f.Add([]byte{TypePrune, 0, 10, 100, 0, 1, 225, 0, 0, 1, 0}) // one byte short
	f.Add(append((&Message{Type: TypeGraftAck + 1}).Marshal(), 0xFF))
	f.Fuzz(func(t *testing.T, b []byte) {
		m := Message{Type: 0xEE, Source: 1, Group: 2, Lifetime: 3}
		if err := UnmarshalInto(&m, b); err != nil {
			return
		}
		if m.Type < TypeProbe || m.Type > TypeGraftAck {
			t.Fatalf("accepted unknown type %d", m.Type)
		}
		// Byte 1 is reserved and not carried by Message.
		want := append([]byte(nil), b[:12]...)
		want[1] = 0
		if got := m.Marshal(); !bytes.Equal(got, want) {
			t.Fatalf("re-encode %x, want %x", got, want)
		}
	})
}
