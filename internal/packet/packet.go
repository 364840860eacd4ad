// Package packet implements the IPv4-style datagram header used on every
// simulated link. The codec is a real byte-level encoder/decoder (network
// byte order, ones-complement header checksum, TTL) so the protocol stacks
// above it exercise genuine marshal/unmarshal paths rather than passing Go
// structs around.
//
// The layout is the classic 20-byte IPv4 header without options:
//
//	 0               1               2               3
//	+-------+-------+---------------+-------------------------------+
//	|Ver=4  | IHL=5 |      TOS      |          Total Length         |
//	+-------+-------+---------------+-------------------------------+
//	|         Identification        |          (flags/frag=0)       |
//	+---------------+---------------+-------------------------------+
//	|      TTL      |   Protocol    |        Header Checksum        |
//	+---------------+---------------+-------------------------------+
//	|                       Source Address                          |
//	+----------------------------------------------------------------
//	|                     Destination Address                       |
//	+----------------------------------------------------------------
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"pim/internal/addr"
)

// HeaderLen is the fixed encoded header size (no options).
const HeaderLen = 20

// IP protocol numbers used by the simulated stacks. IGMP and PIM use their
// standard numbers; the remaining control protocols use simulator-local
// numbers from the unassigned range (documented in DESIGN.md: the 1994 paper
// carried PIM and DVMRP inside IGMP message types, we give each protocol its
// own demux number instead).
const (
	ProtoIGMP    = 2
	ProtoUDP     = 17 // application data payloads
	ProtoPIM     = 103
	ProtoDVMRP   = 200
	ProtoCBT     = 201
	ProtoRIPSim  = 202 // distance-vector unicast routing messages
	ProtoLSSim   = 203 // link-state unicast routing messages
	ProtoMOSPF   = 204 // group-membership LSA flooding
	ProtoPIMData = 205 // PIM register-encapsulated data (outer header proto)
)

// DefaultTTL is the initial TTL for locally originated datagrams.
const DefaultTTL = 64

// Decode errors.
var (
	ErrTruncated   = errors.New("packet: truncated")
	ErrBadVersion  = errors.New("packet: bad version/IHL")
	ErrBadChecksum = errors.New("packet: bad header checksum")
	ErrBadLength   = errors.New("packet: total length mismatch")
)

// Packet is a parsed datagram: header fields plus payload bytes.
type Packet struct {
	TOS      byte
	ID       uint16
	TTL      byte
	Protocol byte
	Src      addr.IP
	Dst      addr.IP
	Payload  []byte
}

// New builds a datagram with DefaultTTL.
func New(src, dst addr.IP, proto byte, payload []byte) *Packet {
	return &Packet{TTL: DefaultTTL, Protocol: proto, Src: src, Dst: dst, Payload: payload}
}

// Len returns the encoded length of the datagram.
func (p *Packet) Len() int { return HeaderLen + len(p.Payload) }

// Marshal encodes the datagram, computing the header checksum.
func (p *Packet) Marshal() ([]byte, error) {
	return p.MarshalTo(make([]byte, 0, p.Len()))
}

// MarshalTo appends the encoded datagram to dst and returns the extended
// slice. The output bytes are identical to Marshal's; passing a recycled
// dst[:0] makes the warm encode path allocation-free.
func (p *Packet) MarshalTo(dst []byte) ([]byte, error) {
	total := p.Len()
	if total > 0xFFFF {
		return dst, fmt.Errorf("packet: payload too large (%d bytes)", len(p.Payload))
	}
	// The header is built as the three big-endian words it occupies (bytes
	// 0–7, 8–15 with the checksum field zero, 16–19), checksummed in
	// registers — the sum Checksum takes over the bytes, without reading back
	// bytes still in the store buffer — and written with three stores.
	// Version 4, IHL 5 words; the flags/fragment offset stay zero: the
	// simulator never fragments.
	w0 := uint64(4<<4|5)<<56 | uint64(p.TOS)<<48 | uint64(total)<<32 | uint64(p.ID)<<16
	w1 := uint64(p.TTL)<<56 | uint64(p.Protocol)<<48 | uint64(p.Src)
	sum, carry := bits.Add64(w0, w1, 0)
	sum, carry = bits.Add64(sum, uint64(p.Dst), carry)
	w1 |= uint64(fold(sum, carry)) << 32
	off := len(dst)
	dst = append(dst, make([]byte, HeaderLen)...)
	b := dst[off:]
	binary.BigEndian.PutUint64(b, w0)
	binary.BigEndian.PutUint64(b[8:], w1)
	binary.BigEndian.PutUint32(b[16:], uint32(p.Dst))
	return append(dst, p.Payload...), nil
}

// Unmarshal decodes and validates a datagram. The returned packet's Payload
// aliases b; callers that retain packets across buffer reuse must copy.
func Unmarshal(b []byte) (*Packet, error) {
	p := new(Packet)
	if err := UnmarshalInto(p, b); err != nil {
		return nil, err
	}
	return p, nil
}

// UnmarshalInto decodes and validates a datagram into a caller-owned Packet,
// allocating nothing. Like Unmarshal, p.Payload aliases b afterwards.
func UnmarshalInto(p *Packet, b []byte) error {
	if len(b) < HeaderLen {
		return ErrTruncated
	}
	if b[0] != 4<<4|5 {
		return ErrBadVersion
	}
	if Checksum(b[:HeaderLen]) != 0 {
		return ErrBadChecksum
	}
	total := int(binary.BigEndian.Uint16(b[2:]))
	if total < HeaderLen || total > len(b) {
		return ErrBadLength
	}
	*p = Packet{
		TOS:      b[1],
		ID:       binary.BigEndian.Uint16(b[4:]),
		TTL:      b[8],
		Protocol: b[9],
		Src:      addr.IP(binary.BigEndian.Uint32(b[12:])),
		Dst:      addr.IP(binary.BigEndian.Uint32(b[16:])),
		Payload:  b[HeaderLen:total],
	}
	return nil
}

// Forwarded returns a copy of p with the TTL decremented, or false if the
// TTL is exhausted and the packet must be dropped.
//
// The copy is a heap allocation per forwarded packet, the last one left on
// the data path, and it stays for now. Removing it takes the repository
// benchmark's dense windows so close to zero allocations that pimperf's
// relative rebuild-agreement check (0.01 %) fails on a single rebuild's
// extra runtime allocations, so the check needs an absolute floor first;
// ROADMAP.md item 12 holds the measured figures. The fix must copy into
// scratch the forwarding chassis owns, never decrement p.TTL in place:
// border.handleData hands one *Packet to its dense and then its sparse
// instance, and the second must see the TTL that arrived.
func (p *Packet) Forwarded() (*Packet, bool) {
	if p.TTL <= 1 {
		return nil, false
	}
	q := *p
	q.TTL--
	return &q, true
}

// Checksum computes the RFC 1071 ones-complement sum over b. Computing it
// over a header whose checksum field holds the transmitted checksum yields 0
// for an intact header.
//
// The sum runs a 64-bit big-endian word at a time (RFC 1071 §2(B)): 2^16 is 1
// modulo 0xFFFF, so an end-around-carry sum of even-aligned words of any
// width, folded down to 16 bits, is the sum of the 16-bit words. A nonzero
// sum never folds to 0, so all-zero input still yields 0xFFFF.
func Checksum(b []byte) uint16 {
	var sum, carry uint64
	for ; len(b) >= 8; b = b[8:] {
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b), carry)
	}
	if len(b) >= 4 {
		sum, carry = bits.Add64(sum, uint64(binary.BigEndian.Uint32(b)), carry)
		b = b[4:]
	}
	if len(b) >= 2 {
		sum, carry = bits.Add64(sum, uint64(binary.BigEndian.Uint16(b)), carry)
		b = b[2:]
	}
	if len(b) == 1 {
		sum, carry = bits.Add64(sum, uint64(b[0])<<8, carry)
	}
	return fold(sum, carry)
}

// fold completes a word-wide sum — sum plus the carry pending out of bit 63,
// its end-around carry — folds it to 16 bits and complements it. Adding the
// carry cannot overflow: an Add64 chain started from zero carries out of a
// sum of 2^64−1 only if the step before it did.
func fold(sum, carry uint64) uint16 {
	sum += carry
	sum = sum>>32 + sum&0xFFFFFFFF
	for sum > 0xFFFF {
		sum = sum>>16 + sum&0xFFFF
	}
	return ^uint16(sum)
}

// Scratch is a reusable control-plane encode workspace: a payload buffer
// plus a header struct, both recycled across sends so a warm send site
// allocates nothing. Embed one per router (the router itself lives on the
// heap, so &s.Pkt never escape-allocates) and rebuild it on every send:
//
//	s.Buf = pimmsg.AppendEnvelope(s.Buf[:0], pimmsg.TypeQuery)
//	s.Buf = m.MarshalTo(s.Buf)
//	node.Send(out, s.Packet(src, dst, proto, ttl), hop)
//
// The Packet handed to Send is only borrowed: netsim marshals it into a
// transmit frame before Send returns, so the scratch may be reused
// immediately. Scratch is NOT safe for packets retained past the Send call
// (LocalSend handlers run synchronously and may re-enter the same router's
// send path — keep those on the allocating packet.New).
type Scratch struct {
	Buf []byte
	Pkt Packet
}

// Packet points the scratch header at the scratch buffer and returns it.
func (s *Scratch) Packet(src, dst addr.IP, proto, ttl byte) *Packet {
	s.Pkt = Packet{TTL: ttl, Protocol: proto, Src: src, Dst: dst, Payload: s.Buf}
	return &s.Pkt
}

// String renders a compact one-line summary for traces.
func (p *Packet) String() string {
	return fmt.Sprintf("%v>%v proto=%d ttl=%d len=%d", p.Src, p.Dst, p.Protocol, p.TTL, p.Len())
}
