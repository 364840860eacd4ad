package engine

import (
	"cmp"
	"slices"

	"pim/internal/addr"
	"pim/internal/netsim"
)

// Neighbors is per-interface liveness soft state: address → deadline, renewed
// by whatever the protocol hears periodically (PIM queries, DVMRP probes; the
// IGMP querier keys it by group address and renews on host reports). An entry
// past its deadline is dead at once, whether or not a sweep has removed it.
type Neighbors struct {
	byIface map[int]map[addr.IP]netsim.Time
	dead    []ifaceAddr // Expire's scratch
}

type ifaceAddr struct {
	iface int
	a     addr.IP
}

// Heard renews a's deadline on iface and reports its state before the
// renewal: known if an entry existed (expired-but-unswept included), live if
// that entry was still within its deadline.
func (n *Neighbors) Heard(iface int, a addr.IP, now, deadline netsim.Time) (known, live bool) {
	byAddr := n.byIface[iface]
	if byAddr == nil {
		if n.byIface == nil {
			n.byIface = map[int]map[addr.IP]netsim.Time{}
		}
		byAddr = map[addr.IP]netsim.Time{}
		n.byIface[iface] = byAddr
	}
	old, known := byAddr[a]
	byAddr[a] = deadline
	return known, known && now <= old
}

// Alive reports whether a is a live entry on iface.
func (n *Neighbors) Alive(iface int, a addr.IP, now netsim.Time) bool {
	deadline, ok := n.byIface[iface][a]
	return ok && now <= deadline
}

// Live reports whether iface has a live entry with an address above floor.
// Floor 0 asks for any neighbor at all (leaf detection); floor = the
// interface's own address asks whether a higher-addressed router exists (DR
// election).
func (n *Neighbors) Live(iface int, now netsim.Time, floor addr.IP) bool {
	for a, deadline := range n.byIface[iface] {
		if now <= deadline && a > floor {
			return true
		}
	}
	return false
}

// Forget removes a's entry on iface, reporting whether one existed.
func (n *Neighbors) Forget(iface int, a addr.IP) bool {
	byAddr := n.byIface[iface]
	_, ok := byAddr[a]
	delete(byAddr, a)
	return ok
}

// Each calls fn for every live entry, in no particular order.
func (n *Neighbors) Each(now netsim.Time, fn func(iface int, a addr.IP)) {
	for iface, byAddr := range n.byIface {
		for a, deadline := range byAddr {
			if now <= deadline {
				fn(iface, a)
			}
		}
	}
}

// Count returns the number of live entries across all interfaces.
func (n *Neighbors) Count(now netsim.Time) int {
	c := 0
	n.Each(now, func(int, addr.IP) { c++ })
	return c
}

// Expire removes every entry past its deadline and then calls fn, when
// non-nil, once per removed entry in (iface, address) order. A sweep can
// expire several entries at once (simultaneous link failures), and whatever
// fn publishes or sends must not follow map iteration order.
func (n *Neighbors) Expire(now netsim.Time, fn func(iface int, a addr.IP)) {
	n.dead = n.dead[:0]
	for iface, byAddr := range n.byIface {
		for a, deadline := range byAddr {
			if now > deadline {
				delete(byAddr, a)
				if fn != nil {
					n.dead = append(n.dead, ifaceAddr{iface, a})
				}
			}
		}
	}
	slices.SortFunc(n.dead, func(x, y ifaceAddr) int {
		return cmp.Or(cmp.Compare(x.iface, y.iface), cmp.Compare(x.a, y.a))
	})
	for _, d := range n.dead {
		fn(d.iface, d.a)
	}
}

// Reset forgets everything.
func (n *Neighbors) Reset() { n.byIface = nil }

// Members is local group membership per interface, as reported by IGMP.
type Members struct {
	byIface map[int]map[addr.IP]bool
}

// Add records a member of g on iface.
func (m *Members) Add(iface int, g addr.IP) {
	byGroup := m.byIface[iface]
	if byGroup == nil {
		if m.byIface == nil {
			m.byIface = map[int]map[addr.IP]bool{}
		}
		byGroup = map[addr.IP]bool{}
		m.byIface[iface] = byGroup
	}
	byGroup[g] = true
}

// Remove withdraws the member of g on iface.
func (m *Members) Remove(iface int, g addr.IP) { delete(m.byIface[iface], g) }

// Has reports whether g has a member on iface.
func (m *Members) Has(iface int, g addr.IP) bool { return m.byIface[iface][g] }

// Any reports whether g has a member on any interface.
func (m *Members) Any(g addr.IP) bool {
	for _, byGroup := range m.byIface {
		if byGroup[g] {
			return true
		}
	}
	return false
}

// Groups appends to buf the groups with a member on any interface, sorted and
// deduplicated; passing a reused buffer keeps warm callers allocation-free.
func (m *Members) Groups(buf []addr.IP) []addr.IP {
	for _, byGroup := range m.byIface {
		for g := range byGroup {
			buf = append(buf, g)
		}
	}
	slices.Sort(buf)
	return slices.Compact(buf)
}

// Reset forgets everything.
func (m *Members) Reset() { m.byIface = nil }
