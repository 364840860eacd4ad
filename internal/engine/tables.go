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
// Each interface's entries are a slice sorted by address, so every walk
// visits them in (interface, address) order.
type Neighbors struct {
	byIface [][]heard   // by interface index
	dead    []ifaceAddr // Expire's scratch
}

type heard struct {
	a        addr.IP
	deadline netsim.Time
}

type ifaceAddr struct {
	iface int
	a     addr.IP
}

// find returns iface's entries and where a is or would be among them.
func (n *Neighbors) find(iface int, a addr.IP) (hs []heard, i int, ok bool) {
	if iface < len(n.byIface) {
		hs = n.byIface[iface]
	}
	i, ok = slices.BinarySearchFunc(hs, a, func(h heard, a addr.IP) int { return cmp.Compare(h.a, a) })
	return hs, i, ok
}

// Heard renews a's deadline on iface and reports its state before the
// renewal: known if an entry existed (expired-but-unswept included), live if
// that entry was still within its deadline.
func (n *Neighbors) Heard(iface int, a addr.IP, now, deadline netsim.Time) (known, live bool) {
	hs, i, known := n.find(iface, a)
	if known {
		live, hs[i].deadline = now <= hs[i].deadline, deadline
		return true, live
	}
	if iface >= len(n.byIface) {
		n.byIface = slices.Grow(n.byIface, iface+1-len(n.byIface))[:iface+1]
	}
	n.byIface[iface] = slices.Insert(hs, i, heard{a, deadline})
	return false, false
}

// Alive reports whether a is a live entry on iface.
func (n *Neighbors) Alive(iface int, a addr.IP, now netsim.Time) bool {
	hs, i, ok := n.find(iface, a)
	return ok && now <= hs[i].deadline
}

// Live reports whether iface has a live entry with an address above floor.
// Floor 0 asks for any neighbor at all (leaf detection); floor = the
// interface's own address asks whether a higher-addressed router exists (DR
// election).
func (n *Neighbors) Live(iface int, now netsim.Time, floor addr.IP) bool {
	hs, i, ok := n.find(iface, floor)
	if ok {
		i++
	}
	for _, h := range hs[i:] {
		if now <= h.deadline {
			return true
		}
	}
	return false
}

// Forget removes a's entry on iface, reporting whether one existed.
func (n *Neighbors) Forget(iface int, a addr.IP) bool {
	hs, i, ok := n.find(iface, a)
	if ok {
		n.byIface[iface] = slices.Delete(hs, i, i+1)
	}
	return ok
}

// Each calls fn for every live entry in (interface, address) order.
func (n *Neighbors) Each(now netsim.Time, fn func(iface int, a addr.IP)) {
	for iface, hs := range n.byIface {
		for _, h := range hs {
			if now <= h.deadline {
				fn(iface, h.a)
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
// non-nil, once per removed entry in (interface, address) order. A sweep can
// expire several entries at once (simultaneous link failures); fn runs only
// after the sweep, so it may read or renew the table.
func (n *Neighbors) Expire(now netsim.Time, fn func(iface int, a addr.IP)) {
	n.dead = n.dead[:0]
	for iface, hs := range n.byIface {
		kept := hs[:0]
		for _, h := range hs {
			if now <= h.deadline {
				kept = append(kept, h)
			} else if fn != nil {
				n.dead = append(n.dead, ifaceAddr{iface, h.a})
			}
		}
		n.byIface[iface] = kept
	}
	for _, d := range n.dead {
		fn(d.iface, d.a)
	}
}

// Reset forgets everything.
func (n *Neighbors) Reset() { n.byIface = nil }

// Members is local group membership per interface, as reported by IGMP. Each
// interface's groups are a slice sorted by address.
type Members struct {
	byIface [][]addr.IP // by interface index
}

// find returns iface's groups and where g is or would be among them.
func (m *Members) find(iface int, g addr.IP) (gs []addr.IP, i int, ok bool) {
	if iface < len(m.byIface) {
		gs = m.byIface[iface]
	}
	i, ok = slices.BinarySearch(gs, g)
	return gs, i, ok
}

// Add records a member of g on iface.
func (m *Members) Add(iface int, g addr.IP) {
	gs, i, ok := m.find(iface, g)
	if ok {
		return
	}
	if iface >= len(m.byIface) {
		m.byIface = slices.Grow(m.byIface, iface+1-len(m.byIface))[:iface+1]
	}
	m.byIface[iface] = slices.Insert(gs, i, g)
}

// Remove withdraws the member of g on iface.
func (m *Members) Remove(iface int, g addr.IP) {
	if gs, i, ok := m.find(iface, g); ok {
		m.byIface[iface] = slices.Delete(gs, i, i+1)
	}
}

// Has reports whether g has a member on iface.
func (m *Members) Has(iface int, g addr.IP) bool {
	_, _, ok := m.find(iface, g)
	return ok
}

// Any reports whether g has a member on any interface.
func (m *Members) Any(g addr.IP) bool {
	for iface := range m.byIface {
		if m.Has(iface, g) {
			return true
		}
	}
	return false
}

// Groups appends to buf the groups with a member on any interface, sorted and
// deduplicated; passing a reused buffer keeps warm callers allocation-free.
func (m *Members) Groups(buf []addr.IP) []addr.IP {
	for _, gs := range m.byIface {
		buf = append(buf, gs...)
	}
	slices.Sort(buf)
	return slices.Compact(buf)
}

// Reset forgets everything.
func (m *Members) Reset() { m.byIface = nil }
