package packet

import (
	"bytes"
	"testing"
)

// FuzzUnmarshal: any accepted packet must re-marshal to an equivalent
// decode (header fields and payload preserved).
func FuzzUnmarshal(f *testing.F) {
	p := New(0x0A000001, 0xE1000000, ProtoUDP, []byte("payload"))
	raw, _ := p.Marshal()
	f.Add(raw)
	f.Add([]byte{})
	f.Add(make([]byte, HeaderLen))
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Unmarshal(b)
		if err != nil {
			return
		}
		raw, err := p.Marshal()
		if err != nil {
			t.Fatalf("re-marshal of accepted packet failed: %v", err)
		}
		q, err := Unmarshal(raw)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if q.Src != p.Src || q.Dst != p.Dst || q.Protocol != p.Protocol ||
			q.TTL != p.TTL || !bytes.Equal(q.Payload, p.Payload) {
			t.Fatal("round trip changed the packet")
		}
	})
}

// FuzzChecksum: the word-wide Checksum equals the 16-bit reference on any
// bytes, and a buffer carrying its own checksum in an even-aligned word sums
// to 0 — the verification every received header goes through.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Add(bytes.Repeat([]byte{0xFF}, 63))
	f.Add(bytes.Repeat([]byte{0xFF, 0xFE}, 32))               // a carry still pending at the fold
	f.Add(append(bytes.Repeat([]byte{0xFF, 0xFE}, 31), 0xFD)) // every tail width
	f.Add([]byte{0xFF, 0x00, 0x00, 0xFF})
	p := New(0x0A000001, 0xE1000000, ProtoUDP, nil)
	raw, _ := p.Marshal()
	f.Add(raw)
	f.Fuzz(func(t *testing.T, b []byte) {
		if got, want := Checksum(b), refChecksum(b); got != want {
			t.Fatalf("Checksum = %04x, reference %04x", got, want)
		}
		if len(b) < 2 {
			return
		}
		c := bytes.Clone(b) // the engine keeps b as the input that ran
		c[0], c[1] = 0, 0
		cs := Checksum(c)
		c[0], c[1] = byte(cs>>8), byte(cs)
		if got := Checksum(c); got != 0 {
			t.Fatalf("self-checksummed buffer sums to %04x, want 0", got)
		}
	})
}
