// Package pimmsg defines the PIM control message wire formats of §3: Query
// (hello/neighbor discovery, §3.7 fn. 14), Register (data piggybacked toward
// the RP), Join/Prune (join list and prune list with per-address WC and RP
// bits), RP-Reachability (§3.2/§3.9), and the dense-mode Graft/Graft-Ack
// used by internal/pimdm (the paper's companion protocol [13]).
//
// The 1994 implementation carried these as IGMP message-type extensions;
// this reproduction gives PIM its own IP protocol number and a two-byte
// version/type header (DESIGN.md §4). All multi-byte fields are network
// byte order and every codec round-trips byte-exactly.
package pimmsg

import (
	"encoding/binary"
	"errors"
	"fmt"

	"pim/internal/addr"
)

// Message types.
const (
	TypeQuery     = 0 // neighbor discovery / DR election
	TypeRegister  = 1 // encapsulated data, sender's DR -> RP
	TypeJoinPrune = 3
	TypeRPReach   = 4 // RP reachability, RP -> down the (*,G) tree
	TypeGraft     = 6 // dense mode: unprune a branch
	TypeGraftAck  = 7 // dense mode: hop-by-hop graft acknowledgement
	TypeAssert    = 5 // dense mode: LAN forwarder election
)

// Version is the protocol version carried in every message.
const Version = 1

// Per-address flag bits in join/prune lists (§3.2).
const (
	FlagWC = 1 << 0 // address is the RP for a shared tree
	FlagRP = 1 << 1 // state belongs on the RP tree (RP-bit)
)

// ErrBadMessage reports malformed wire bytes.
var ErrBadMessage = errors.New("pimmsg: malformed message")

// Addr is one join- or prune-list element: an address plus WC/RP bits.
type Addr struct {
	Addr addr.IP
	WC   bool
	RP   bool
}

func (a Addr) flags() byte {
	var f byte
	if a.WC {
		f |= FlagWC
	}
	if a.RP {
		f |= FlagRP
	}
	return f
}

func (a Addr) String() string {
	s := a.Addr.String()
	if a.WC {
		s += ",WC"
	}
	if a.RP {
		s += ",RP"
	}
	return s
}

// GroupRecord carries the joins and prunes for one group.
type GroupRecord struct {
	Group  addr.IP
	Joins  []Addr
	Prunes []Addr
}

// JoinPrune is the §3.2–§3.6 workhorse message. UpstreamNeighbor addresses
// the router expected to act on it; on multi-access LANs the message is
// multicast to 224.0.0.2 so other routers can overhear it for prune
// override and join suppression (§3.7).
type JoinPrune struct {
	UpstreamNeighbor addr.IP
	HoldTime         uint16 // seconds the receiver should keep the state
	Groups           []GroupRecord
}

// Marshal encodes the message body (without the version/type header).
func (m *JoinPrune) Marshal() []byte { return m.MarshalTo(make([]byte, 0, 8)) }

// MarshalTo appends the encoded body to b (same bytes as Marshal).
func (m *JoinPrune) MarshalTo(b []byte) []byte {
	var top [8]byte
	binary.BigEndian.PutUint32(top[0:], uint32(m.UpstreamNeighbor))
	binary.BigEndian.PutUint16(top[4:], m.HoldTime)
	binary.BigEndian.PutUint16(top[6:], uint16(len(m.Groups)))
	b = append(b, top[:]...)
	for _, g := range m.Groups {
		var hdr [8]byte
		binary.BigEndian.PutUint32(hdr[0:], uint32(g.Group))
		binary.BigEndian.PutUint16(hdr[4:], uint16(len(g.Joins)))
		binary.BigEndian.PutUint16(hdr[6:], uint16(len(g.Prunes)))
		b = append(b, hdr[:]...)
		for _, lst := range [][]Addr{g.Joins, g.Prunes} {
			for _, a := range lst {
				var e [5]byte
				binary.BigEndian.PutUint32(e[0:], uint32(a.Addr))
				e[4] = a.flags()
				b = append(b, e[:]...)
			}
		}
	}
	return b
}

func unmarshalAddrList(dst []Addr, b []byte, n int) ([]Addr, []byte, error) {
	if len(b) < 5*n {
		return dst, nil, ErrBadMessage
	}
	for i := 0; i < n; i++ {
		dst = append(dst, Addr{
			Addr: addr.IP(binary.BigEndian.Uint32(b)),
			WC:   b[4]&FlagWC != 0,
			RP:   b[4]&FlagRP != 0,
		})
		b = b[5:]
	}
	return dst, b, nil
}

// UnmarshalJoinPrune decodes a message body.
func UnmarshalJoinPrune(b []byte) (*JoinPrune, error) {
	m := new(JoinPrune)
	if err := UnmarshalJoinPruneInto(m, b); err != nil {
		return nil, err
	}
	return m, nil
}

// UnmarshalJoinPruneInto decodes a message body into a caller-owned message,
// reusing the capacity of m's Groups slice and of each retained group
// record's Joins/Prunes slices — a warm decode of a steady-refresh message
// allocates nothing. The decoded slices are only valid until the next
// UnmarshalJoinPruneInto on the same m.
func UnmarshalJoinPruneInto(m *JoinPrune, b []byte) error {
	if len(b) < 8 {
		return ErrBadMessage
	}
	m.UpstreamNeighbor = addr.IP(binary.BigEndian.Uint32(b))
	m.HoldTime = binary.BigEndian.Uint16(b[4:])
	ng := int(binary.BigEndian.Uint16(b[6:]))
	b = b[8:]
	// Reslicing past the previous length deliberately resurrects old group
	// records so their Joins/Prunes capacity is recycled too.
	if cap(m.Groups) >= ng {
		m.Groups = m.Groups[:ng]
	} else {
		m.Groups = make([]GroupRecord, ng)
	}
	for i := 0; i < ng; i++ {
		if len(b) < 8 {
			m.Groups = m.Groups[:i]
			return ErrBadMessage
		}
		g := &m.Groups[i]
		g.Group = addr.IP(binary.BigEndian.Uint32(b))
		nj := int(binary.BigEndian.Uint16(b[4:]))
		np := int(binary.BigEndian.Uint16(b[6:]))
		b = b[8:]
		var err error
		if g.Joins, b, err = unmarshalAddrList(g.Joins[:0], b, nj); err != nil {
			m.Groups = m.Groups[:i]
			return err
		}
		if g.Prunes, b, err = unmarshalAddrList(g.Prunes[:0], b, np); err != nil {
			m.Groups = m.Groups[:i]
			return err
		}
	}
	return nil
}

// Register is the sender-side encapsulation of §3: the DR wraps the data
// packet and unicasts it to the RP ("a PIM register message, piggybacked on
// the data packet"). Inner holds the complete marshalled inner datagram.
type Register struct {
	Inner []byte
}

// RegisterOverhead is what Register encapsulation adds around the inner
// datagram: the envelope (version, type) and the two-byte inner length.
const RegisterOverhead = 4

// Marshal encodes the message body.
func (m *Register) Marshal() []byte { return m.MarshalTo(make([]byte, 0, 2+len(m.Inner))) }

// MarshalTo appends the encoded body to b (same bytes as Marshal).
func (m *Register) MarshalTo(b []byte) []byte {
	b = append(b, byte(len(m.Inner)>>8), byte(len(m.Inner)))
	return append(b, m.Inner...)
}

// UnmarshalRegister decodes a message body.
func UnmarshalRegister(b []byte) (*Register, error) {
	if len(b) < 2 {
		return nil, ErrBadMessage
	}
	n := int(binary.BigEndian.Uint16(b))
	if len(b) < 2+n {
		return nil, ErrBadMessage
	}
	return &Register{Inner: b[2 : 2+n]}, nil
}

// RPReach is the periodic RP reachability message distributed down the
// (*,G) tree (§3.2); receivers reset their RP timers, and its absence
// triggers fail-over to an alternate RP (§3.9).
type RPReach struct {
	Group    addr.IP
	RP       addr.IP
	HoldTime uint16 // seconds
}

// Marshal encodes the message body.
func (m *RPReach) Marshal() []byte { return m.MarshalTo(make([]byte, 0, 10)) }

// MarshalTo appends the encoded body to b (same bytes as Marshal).
func (m *RPReach) MarshalTo(b []byte) []byte {
	var e [10]byte
	binary.BigEndian.PutUint32(e[0:], uint32(m.Group))
	binary.BigEndian.PutUint32(e[4:], uint32(m.RP))
	binary.BigEndian.PutUint16(e[8:], m.HoldTime)
	return append(b, e[:]...)
}

// UnmarshalRPReach decodes a message body.
func UnmarshalRPReach(b []byte) (*RPReach, error) {
	if len(b) < 10 {
		return nil, ErrBadMessage
	}
	return &RPReach{
		Group:    addr.IP(binary.BigEndian.Uint32(b)),
		RP:       addr.IP(binary.BigEndian.Uint32(b[4:])),
		HoldTime: binary.BigEndian.Uint16(b[8:]),
	}, nil
}

// Query is the neighbor discovery message multicast to 224.0.0.2 (§3.7
// fn. 14); neighbors expire after HoldTime. DR election picks the highest
// address among live neighbors and self.
type Query struct {
	HoldTime uint16 // seconds
}

// Marshal encodes the message body.
func (m *Query) Marshal() []byte { return m.MarshalTo(make([]byte, 0, 2)) }

// MarshalTo appends the encoded body to b (same bytes as Marshal).
func (m *Query) MarshalTo(b []byte) []byte {
	return append(b, byte(m.HoldTime>>8), byte(m.HoldTime))
}

// UnmarshalQuery decodes a message body.
func UnmarshalQuery(b []byte) (*Query, error) {
	m := new(Query)
	if err := UnmarshalQueryInto(m, b); err != nil {
		return nil, err
	}
	return m, nil
}

// UnmarshalQueryInto decodes a message body into a caller-owned message.
func UnmarshalQueryInto(m *Query, b []byte) error {
	if len(b) < 2 {
		return ErrBadMessage
	}
	m.HoldTime = binary.BigEndian.Uint16(b)
	return nil
}

// Assert elects a single forwarder when parallel routers feed one LAN in
// dense mode: the router with the better (lower) metric to the source wins;
// ties break to the higher address.
type Assert struct {
	Group  addr.IP
	Source addr.IP
	Metric uint32
}

// Marshal encodes the message body.
func (m *Assert) Marshal() []byte { return m.MarshalTo(make([]byte, 0, 12)) }

// MarshalTo appends the encoded body to b (same bytes as Marshal).
func (m *Assert) MarshalTo(b []byte) []byte {
	var e [12]byte
	binary.BigEndian.PutUint32(e[0:], uint32(m.Group))
	binary.BigEndian.PutUint32(e[4:], uint32(m.Source))
	binary.BigEndian.PutUint32(e[8:], m.Metric)
	return append(b, e[:]...)
}

// UnmarshalAssert decodes a message body.
func UnmarshalAssert(b []byte) (*Assert, error) {
	if len(b) < 12 {
		return nil, ErrBadMessage
	}
	return &Assert{
		Group:  addr.IP(binary.BigEndian.Uint32(b)),
		Source: addr.IP(binary.BigEndian.Uint32(b[4:])),
		Metric: binary.BigEndian.Uint32(b[8:]),
	}, nil
}

// Graft (dense mode) asks the upstream router to restore a pruned (S,G)
// branch; GraftAck confirms hop-by-hop. Both reuse the JoinPrune body
// layout with the addresses in the join list.

// Envelope wraps a typed body with the common version/type header.
func Envelope(msgType byte, body []byte) []byte {
	b := make([]byte, 2+len(body))
	b[0] = Version
	b[1] = msgType
	copy(b[2:], body)
	return b
}

// AppendEnvelope appends the version/type header to dst; follow it with the
// body's MarshalTo to build the whole payload in one pass with no copies:
//
//	buf = pimmsg.AppendEnvelope(buf[:0], pimmsg.TypeJoinPrune)
//	buf = m.MarshalTo(buf)
func AppendEnvelope(dst []byte, msgType byte) []byte {
	return append(dst, Version, msgType)
}

// Open splits an envelope into type and body.
func Open(b []byte) (msgType byte, body []byte, err error) {
	if len(b) < 2 {
		return 0, nil, ErrBadMessage
	}
	if b[0] != Version {
		return 0, nil, fmt.Errorf("%w: version %d", ErrBadMessage, b[0])
	}
	return b[1], b[2:], nil
}

// TypeMemberAd is the dense-region member-existence message of the §4
// dense/sparse interoperation mechanism ("getting the group member existence
// information to the border routers"). One type carries both halves of the
// exchange, told apart by the Consumer flag: a border router floods a
// solicitation (flag set, no groups) to say that someone in the region reads
// member existence, and a router that holds a live solicitation floods an
// advertisement (flag clear) listing the groups it has local members for. A
// region nobody solicits carries no message of this type at all (DESIGN.md
// §19).
const TypeMemberAd = 8

// memberAdConsumer is the Consumer flag on the wire: the top bit of the
// 16-bit group-count field, which leaves 32 767 groups per advertisement.
const memberAdConsumer = 1 << 15

// MemberAd is the flooded member-existence message.
type MemberAd struct {
	Origin addr.IP // originating router
	// Seq orders one origin's floods; solicitations and advertisements are
	// numbered separately.
	Seq uint32
	// Consumer marks a solicitation: Origin consumes member existence and
	// asks the region to advertise. Groups is not meaningful on one.
	Consumer bool
	Groups   []addr.IP // groups with local members at the origin, ascending
}

// Marshal encodes the message body.
func (m *MemberAd) Marshal() []byte { return m.MarshalTo(make([]byte, 0, 10+4*len(m.Groups))) }

// MarshalTo appends the encoded body to b (same bytes as Marshal).
func (m *MemberAd) MarshalTo(b []byte) []byte {
	var flags uint16
	if m.Consumer {
		flags = memberAdConsumer
	}
	return appendGroupList(b, uint32(m.Origin), m.Seq, flags, m.Groups)
}

// appendGroupList appends the head/seq/count/groups layout MemberAd and
// RPReport share; flags is or-ed into the count field.
func appendGroupList(b []byte, head, seq uint32, flags uint16, groups []addr.IP) []byte {
	var hdr [10]byte
	binary.BigEndian.PutUint32(hdr[0:], head)
	binary.BigEndian.PutUint32(hdr[4:], seq)
	binary.BigEndian.PutUint16(hdr[8:], uint16(len(groups))|flags)
	b = append(b, hdr[:]...)
	for _, g := range groups {
		var e [4]byte
		binary.BigEndian.PutUint32(e[0:], uint32(g))
		b = append(b, e[:]...)
	}
	return b
}

// UnmarshalMemberAd decodes a message body.
func UnmarshalMemberAd(b []byte) (*MemberAd, error) {
	m := new(MemberAd)
	if err := UnmarshalMemberAdInto(m, b); err != nil {
		return nil, err
	}
	return m, nil
}

// UnmarshalMemberAdInto decodes a message body into a caller-owned message,
// reusing the capacity of m.Groups: a router relaying floods decodes every
// one of them and allocates nothing once warm. The decoded Groups are only
// valid until the next UnmarshalMemberAdInto on the same m.
func UnmarshalMemberAdInto(m *MemberAd, b []byte) error {
	if len(b) < 10 {
		return ErrBadMessage
	}
	count := binary.BigEndian.Uint16(b[8:])
	n := int(count &^ memberAdConsumer)
	if len(b) < 10+4*n {
		return ErrBadMessage
	}
	m.Origin = addr.IP(binary.BigEndian.Uint32(b))
	m.Seq = binary.BigEndian.Uint32(b[4:])
	m.Consumer = count&memberAdConsumer != 0
	m.Groups = m.Groups[:0]
	for i := 0; i < n; i++ {
		m.Groups = append(m.Groups, addr.IP(binary.BigEndian.Uint32(b[10+4*i:])))
	}
	return nil
}

// TypeRPReport is the §4 dynamic RP discovery message ("the RP address can
// be ... dynamically discovered by ... information obtained via some new
// PIM RP-report messages"): an RP floods the groups it serves; routers
// cache the mapping ("the mapping of G to RP addresses should be cached").
const TypeRPReport = 9

// RPReport is the flooded RP advertisement.
type RPReport struct {
	RP     addr.IP
	Seq    uint32
	Groups []addr.IP
}

// Marshal encodes the message body.
func (m *RPReport) Marshal() []byte { return m.MarshalTo(make([]byte, 0, 10+4*len(m.Groups))) }

// MarshalTo appends the encoded body to b (same bytes as Marshal).
func (m *RPReport) MarshalTo(b []byte) []byte {
	return appendGroupList(b, uint32(m.RP), m.Seq, 0, m.Groups)
}

// UnmarshalRPReport decodes a message body.
func UnmarshalRPReport(b []byte) (*RPReport, error) {
	if len(b) < 10 {
		return nil, ErrBadMessage
	}
	m := &RPReport{
		RP:  addr.IP(binary.BigEndian.Uint32(b)),
		Seq: binary.BigEndian.Uint32(b[4:]),
	}
	n := int(binary.BigEndian.Uint16(b[8:]))
	if len(b) < 10+4*n {
		return nil, ErrBadMessage
	}
	for i := 0; i < n; i++ {
		m.Groups = append(m.Groups, addr.IP(binary.BigEndian.Uint32(b[10+4*i:])))
	}
	return m, nil
}
