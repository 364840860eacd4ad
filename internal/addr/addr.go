// Package addr provides IPv4-style addressing for the multicast routing
// simulator: unicast host addresses, class-D multicast group addresses, and
// CIDR prefixes used by the unicast routing substrates.
//
// Addresses are 32-bit values stored in host order inside an IP, which makes
// them cheap map keys and cheap to compare; the wire codecs in
// internal/packet convert to and from network byte order at the boundary.
package addr

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// IP is an IPv4 address held as a 32-bit integer (a.b.c.d ==
// a<<24|b<<16|c<<8|d). The zero value is the unspecified address 0.0.0.0.
type IP uint32

// Well-known addresses used by the protocols in this repository.
const (
	// Unspecified is 0.0.0.0, used as the wildcard source in (*,G) state.
	Unspecified IP = 0
	// AllSystems is 224.0.0.1, the all-hosts group queried by IGMP.
	AllSystems IP = 0xE0000001
	// AllRouters is 224.0.0.2. The paper (§3.7) sends PIM join/prune and
	// query packets on multi-access LANs to this group so every router on
	// the LAN overhears them.
	AllRouters IP = 0xE0000002
)

// MulticastBase and MulticastLast bound the class-D address space 224/4.
const (
	MulticastBase IP = 0xE0000000
	MulticastLast IP = 0xEFFFFFFF
)

// V4 builds an IP from its four dotted-quad components.
func V4(a, b, c, d byte) IP {
	return IP(a)<<24 | IP(b)<<16 | IP(c)<<8 | IP(d)
}

// Octets returns the four dotted-quad components of ip.
func (ip IP) Octets() (a, b, c, d byte) {
	return byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)
}

// IsMulticast reports whether ip falls in the class-D range 224.0.0.0/4.
func (ip IP) IsMulticast() bool { return ip >= MulticastBase && ip <= MulticastLast }

// IsLinkLocalMulticast reports whether ip is in 224.0.0.0/24, the range that
// routers never forward (IGMP queries, PIM LAN messages).
func (ip IP) IsLinkLocalMulticast() bool { return ip&0xFFFFFF00 == 0xE0000000 }

// String renders ip in dotted-quad form.
func (ip IP) String() string {
	a, b, c, d := ip.Octets()
	var buf [15]byte
	s := strconv.AppendUint(buf[:0], uint64(a), 10)
	s = append(s, '.')
	s = strconv.AppendUint(s, uint64(b), 10)
	s = append(s, '.')
	s = strconv.AppendUint(s, uint64(c), 10)
	s = append(s, '.')
	s = strconv.AppendUint(s, uint64(d), 10)
	return string(s)
}

// ParseIP parses a dotted-quad IPv4 address.
func ParseIP(s string) (IP, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("addr: %q is not a dotted quad", s)
	}
	var ip IP
	for _, p := range parts {
		v, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("addr: bad octet %q in %q", p, s)
		}
		ip = ip<<8 | IP(v)
	}
	return ip, nil
}

// MustParseIP is ParseIP that panics on error, for tests and tables.
func MustParseIP(s string) IP {
	ip, err := ParseIP(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// Prefix is a CIDR prefix: a network address plus mask length.
type Prefix struct {
	Addr IP
	Len  int // 0..32
}

// ErrBadPrefix is returned for malformed prefix strings or mask lengths.
var ErrBadPrefix = errors.New("addr: invalid prefix")

// NewPrefix returns the prefix of the given length containing ip, with host
// bits cleared.
func NewPrefix(ip IP, length int) (Prefix, error) {
	if length < 0 || length > 32 {
		return Prefix{}, ErrBadPrefix
	}
	return Prefix{Addr: ip & Mask(length), Len: length}, nil
}

// MustPrefix is NewPrefix that panics on error.
func MustPrefix(ip IP, length int) Prefix {
	p, err := NewPrefix(ip, length)
	if err != nil {
		panic(err)
	}
	return p
}

// ParsePrefix parses "a.b.c.d/len".
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("%w: %q has no '/'", ErrBadPrefix, s)
	}
	ip, err := ParseIP(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	length, err := strconv.Atoi(s[slash+1:])
	if err != nil || length < 0 || length > 32 {
		return Prefix{}, fmt.Errorf("%w: bad length in %q", ErrBadPrefix, s)
	}
	return NewPrefix(ip, length)
}

// Mask returns the netmask for a prefix length as an IP-shaped bit pattern.
func Mask(length int) IP {
	if length <= 0 {
		return 0
	}
	if length >= 32 {
		return 0xFFFFFFFF
	}
	return IP(^uint32(0) << (32 - length))
}

// Contains reports whether ip falls inside the prefix.
func (p Prefix) Contains(ip IP) bool { return ip&Mask(p.Len) == p.Addr }

// Overlaps reports whether two prefixes share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	shorter := p.Len
	if q.Len < shorter {
		shorter = q.Len
	}
	m := Mask(shorter)
	return p.Addr&m == q.Addr&m
}

// String renders the prefix in CIDR notation.
func (p Prefix) String() string { return p.Addr.String() + "/" + strconv.Itoa(p.Len) }

// GroupForIndex returns the i-th multicast group address in a simulator-local
// block (225.0.0.0 upward), used by workload generators to mint distinct
// groups that never collide with link-local ranges.
func GroupForIndex(i int) IP {
	return V4(225, 0, 0, 0) + IP(i)
}
