package packet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"pim/internal/addr"
)

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	p := New(addr.V4(10, 0, 0, 1), addr.V4(225, 0, 0, 7), ProtoPIM, []byte("join/prune payload"))
	p.TOS = 0x10
	p.ID = 4242
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if q.Src != p.Src || q.Dst != p.Dst || q.Protocol != p.Protocol ||
		q.TTL != p.TTL || q.TOS != p.TOS || q.ID != p.ID {
		t.Fatalf("header mismatch: got %+v want %+v", q, p)
	}
	if !bytes.Equal(q.Payload, p.Payload) {
		t.Fatalf("payload mismatch: %q vs %q", q.Payload, p.Payload)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(src, dst uint32, tos, ttl, proto byte, id uint16, payload []byte) bool {
		if len(payload) > 0xFFFF-HeaderLen {
			payload = payload[:0xFFFF-HeaderLen]
		}
		p := &Packet{TOS: tos, ID: id, TTL: ttl, Protocol: proto,
			Src: addr.IP(src), Dst: addr.IP(dst), Payload: payload}
		b, err := p.Marshal()
		if err != nil {
			return false
		}
		q, err := Unmarshal(b)
		if err != nil {
			return false
		}
		return q.TOS == p.TOS && q.ID == p.ID && q.TTL == p.TTL &&
			q.Protocol == p.Protocol && q.Src == p.Src && q.Dst == p.Dst &&
			bytes.Equal(q.Payload, p.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	if _, err := Unmarshal(make([]byte, HeaderLen-1)); !errors.Is(err, ErrTruncated) {
		t.Errorf("got %v, want ErrTruncated", err)
	}
}

func TestUnmarshalBadVersion(t *testing.T) {
	p := New(1, 2, ProtoUDP, nil)
	b, _ := p.Marshal()
	b[0] = 6 << 4 // IPv6-ish
	if _, err := Unmarshal(b); !errors.Is(err, ErrBadVersion) {
		t.Errorf("got %v, want ErrBadVersion", err)
	}
}

func TestUnmarshalCorruptionDetected(t *testing.T) {
	p := New(addr.V4(10, 0, 0, 1), addr.V4(10, 0, 0, 2), ProtoUDP, []byte{1, 2, 3})
	b, _ := p.Marshal()
	// Flip each header bit in turn: every single-bit header corruption must
	// be rejected (checksum, version, or length check).
	for bit := 0; bit < HeaderLen*8; bit++ {
		c := append([]byte(nil), b...)
		c[bit/8] ^= 1 << (bit % 8)
		if _, err := Unmarshal(c); err == nil {
			t.Fatalf("bit flip at %d went undetected", bit)
		}
	}
}

func TestUnmarshalLengthValidation(t *testing.T) {
	p := New(1, 2, ProtoUDP, []byte{9, 9})
	b, _ := p.Marshal()
	// Total length larger than buffer: must fail even with fixed checksum.
	c := append([]byte(nil), b...)
	c[2], c[3] = 0xFF, 0xFF
	c[10], c[11] = 0, 0
	cs := Checksum(c[:HeaderLen])
	c[10], c[11] = byte(cs>>8), byte(cs)
	if _, err := Unmarshal(c); !errors.Is(err, ErrBadLength) {
		t.Errorf("oversized total length: got %v, want ErrBadLength", err)
	}
}

func TestUnmarshalTrailingBytesIgnored(t *testing.T) {
	p := New(1, 2, ProtoUDP, []byte("abc"))
	b, _ := p.Marshal()
	b = append(b, 0xDE, 0xAD) // link padding
	q, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(q.Payload) != "abc" {
		t.Errorf("payload = %q, want abc (padding must be excluded)", q.Payload)
	}
}

func TestMarshalTooLarge(t *testing.T) {
	p := New(1, 2, ProtoUDP, make([]byte, 0x10000))
	if _, err := p.Marshal(); err == nil {
		t.Error("oversized payload accepted")
	}
}

func TestForwardedDecrementsTTL(t *testing.T) {
	p := New(1, 2, ProtoUDP, nil)
	p.TTL = 3
	q, ok := p.Forwarded()
	if !ok || q.TTL != 2 {
		t.Fatalf("Forwarded: ok=%v ttl=%d", ok, q.TTL)
	}
	if p.TTL != 3 {
		t.Error("Forwarded mutated the original")
	}
	p.TTL = 1
	if _, ok := p.Forwarded(); ok {
		t.Error("TTL 1 packet should not be forwardable")
	}
	p.TTL = 0
	if _, ok := p.Forwarded(); ok {
		t.Error("TTL 0 packet should not be forwardable")
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// Example from RFC 1071 discussions: verify complement-sum-to-zero.
	h := []byte{0x45, 0x00, 0x00, 0x30, 0x44, 0x22, 0x40, 0x00, 0x80, 0x06,
		0x00, 0x00, 0x8c, 0x7c, 0x19, 0xac, 0xae, 0x24, 0x1e, 0x2b}
	cs := Checksum(h)
	h[10], h[11] = byte(cs>>8), byte(cs)
	if Checksum(h) != 0 {
		t.Error("checksum over checksummed header should be 0")
	}
}

func TestChecksumOddLength(t *testing.T) {
	if Checksum([]byte{0xFF}) != ^uint16(0xFF00) {
		t.Errorf("odd-length checksum wrong: %04x", Checksum([]byte{0xFF}))
	}
}

// refChecksum is the RFC 1071 sum one 16-bit word per iteration: the
// reference the word-wide Checksum must equal on every input.
func refChecksum(b []byte) uint16 {
	var sum uint32
	for ; len(b) >= 2; b = b[2:] {
		sum += uint32(b[0])<<8 | uint32(b[1])
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum > 0xFFFF {
		sum = sum>>16 + sum&0xFFFF
	}
	return ^uint16(sum)
}

// TestChecksumMatchesReference: every length 0–64 (each tail of the 64-bit
// loop, odd lengths included) on all-zero, all-0xFF, carry-heavy and random
// bytes, and a sum that lands exactly on 0xFFFF (the ones-complement
// "negative zero", which must not fold to 0).
func TestChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	fills := []struct {
		name string
		fill func(b []byte)
	}{
		{"zero", func(b []byte) {}},
		{"ones", func(b []byte) { bytesOf(b, 0xFF) }},
		{"carry", func(b []byte) { bytesOf(b, 0xFF); b[len(b)-1] = 0xFE }},
		{"random", func(b []byte) { rng.Read(b) }},
	}
	for n := 0; n <= 64; n++ {
		for _, f := range fills {
			for rep := 0; rep < 8; rep++ {
				b := make([]byte, n)
				if n > 0 {
					f.fill(b)
				}
				if got, want := Checksum(b), refChecksum(b); got != want {
					t.Fatalf("%s len %d: Checksum = %04x, reference %04x (% x)", f.name, n, got, want, b)
				}
			}
		}
	}
	negZero := []byte{0xFF, 0x00, 0x00, 0xFF}
	if got, want := Checksum(negZero), refChecksum(negZero); got != want || got != 0 {
		t.Errorf("0xFF00+0x00FF: Checksum = %04x, reference %04x, want 0", got, want)
	}
}

// TestMarshalChecksumMatchesReference: the checksum MarshalTo sums from the
// header words in registers is the reference sum over the encoded bytes.
func TestMarshalChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 2000; i++ {
		p := &Packet{TOS: byte(rng.Intn(256)), ID: uint16(rng.Intn(1 << 16)),
			TTL: byte(rng.Intn(256)), Protocol: byte(rng.Intn(256)),
			Src: addr.IP(rng.Uint32()), Dst: addr.IP(rng.Uint32()),
			Payload: make([]byte, rng.Intn(64))}
		if i%2 == 0 {
			p.TOS, p.ID, p.TTL, p.Protocol, p.Src, p.Dst = 0xFF, 0xFFFF, 0xFF, 0xFF, 0xFFFFFFFF, 0xFFFFFFFF
		}
		b, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		hdr := append([]byte(nil), b[:HeaderLen]...)
		hdr[10], hdr[11] = 0, 0
		if got, want := binary.BigEndian.Uint16(b[10:]), refChecksum(hdr); got != want {
			t.Fatalf("%+v: header checksum %04x, reference %04x", p, got, want)
		}
	}
}

func bytesOf(b []byte, v byte) {
	for i := range b {
		b[i] = v
	}
}

func BenchmarkChecksumWide(b *testing.B) { benchChecksum(b, Checksum) }

func BenchmarkChecksumReference(b *testing.B) { benchChecksum(b, refChecksum) }

// benchChecksum sums one 20-byte header, the length every link crossing
// checksums twice (marshal and verify).
func benchChecksum(b *testing.B, sum func([]byte) uint16) {
	p := New(addr.V4(10, 0, 0, 1), addr.V4(225, 0, 0, 7), ProtoUDP, nil)
	hdr, _ := p.Marshal()
	var sink uint16
	for i := 0; i < b.N; i++ {
		sink += sum(hdr[:HeaderLen])
	}
	if sink == 1 {
		b.Log(sink)
	}
}

func TestStringFormat(t *testing.T) {
	p := New(addr.V4(10, 0, 0, 1), addr.V4(225, 0, 0, 1), ProtoPIM, []byte{1})
	got := p.String()
	want := "10.0.0.1>225.0.0.1 proto=103 ttl=64 len=21"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func BenchmarkMarshal(b *testing.B) {
	payload := make([]byte, 512)
	rand.New(rand.NewSource(1)).Read(payload)
	p := New(addr.V4(10, 0, 0, 1), addr.V4(225, 0, 0, 7), ProtoUDP, payload)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	p := New(addr.V4(10, 0, 0, 1), addr.V4(225, 0, 0, 7), ProtoUDP, make([]byte, 512))
	buf, _ := p.Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}
