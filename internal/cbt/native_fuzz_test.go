package cbt

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalInto: hostile bytes must decode or error cleanly, and whatever
// decodes must re-encode to the 10 bytes it came from. Seeds are the six
// message shapes a CBT router puts on the wire; under plain `go test` they
// run as unit tests.
func FuzzUnmarshalInto(f *testing.F) {
	for typ := byte(TypeJoinReq); typ <= TypeFlush; typ++ {
		f.Add((&Message{Type: typ, Group: 0xE1000001, Core: 0x0A000001}).Marshal())
	}
	f.Add([]byte{})
	f.Add([]byte{TypeJoinReq, 0, 225, 0, 0, 1, 10, 0, 0}) // one byte short
	f.Add((&Message{Type: TypeFlush + 1, Group: 0xE1000001}).Marshal())
	f.Fuzz(func(t *testing.T, b []byte) {
		m := Message{Type: 0xEE, Group: 1, Core: 2}
		if err := UnmarshalInto(&m, b); err != nil {
			return
		}
		if m.Type < TypeJoinReq || m.Type > TypeFlush {
			t.Fatalf("accepted unknown type %d", m.Type)
		}
		// Byte 1 is reserved and not carried by Message.
		want := append([]byte(nil), b[:10]...)
		want[1] = 0
		if got := m.Marshal(); !bytes.Equal(got, want) {
			t.Fatalf("re-encode %x, want %x", got, want)
		}
	})
}
