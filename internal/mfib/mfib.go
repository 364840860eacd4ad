// Package mfib implements the multicast forwarding information base of §3:
// (S,G) and (*,G) entries carrying the incoming interface, the outgoing
// interface list with per-interface timers, and the WC (wildcard), RP, and
// SPT flag bits the paper defines. The PIM sparse-mode engine in
// internal/core drives the state machine; the baselines (DVMRP, PIM-DM)
// reuse the same entry store for their own (S,G) state so that state-size
// comparisons count the same objects.
//
// Entry kinds, using the paper's notation:
//
//   - (*,G): Wildcard=true, RPBit=true. Matches any source; incoming
//     interface is the RPF interface toward the RP; the RP address is kept
//     in place of the source (§3, "saves the RP address in place of the
//     source address").
//   - (S,G): Wildcard=false, RPBit=false. A shortest-path-tree entry with an
//     SPT bit recording whether the switch from shared tree has completed
//     (§3.3 fn. 7).
//   - (S,G) RP-bit: Wildcard=false, RPBit=true. A negative cache on the
//     shared tree (§3.3 fn. 11): interfaces pruned for S are recorded here
//     and subtracted from the (*,G) list during forwarding.
//
// Storage layout (DESIGN.md §16): the outgoing-interface list is stored
// inline in the entry — a fixed [inlineOIFCap]OIF array covers the common
// small fan-out, with a spill array for wider lists. The list is kept packed
// and sorted by interface index, so iteration is deterministic without a
// per-walk sort and the steady-state refresh walk touches contiguous
// memory. OIF pointers returned by accessors are invalidated by any
// structural mutation of the list (AddOIF of a new interface, RemoveOIF);
// callers must not hold them across such mutations — timer closures capture
// the entry Key plus Life() and re-look-up instead.
package mfib

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"pim/internal/addr"
	"pim/internal/netsim"
)

// Key identifies an entry. Source is the wildcard (0) for (*,G) entries.
// RPBit distinguishes the negative-cache (S,G) entry from the SPT (S,G)
// entry, which may coexist on one router.
type Key struct {
	Source addr.IP
	Group  addr.IP
	RPBit  bool
}

// OIF is one outgoing interface of an entry. An interface stays in the list
// while either a downstream join keeps its timer fresh (Expires) or a local
// IGMP member is present (LocalMember); the paper's per-oif timers are §3.6.
type OIF struct {
	Iface       *netsim.Iface
	Expires     netsim.Time // join-driven lifetime; ignored if LocalMember
	LocalMember bool
	// PrunePending is set while a LAN prune awaits possible join override
	// (§3.7); the interface keeps forwarding until the deadline passes.
	PrunePending bool
	// Pruned is a flood-and-prune branch cut by a downstream prune (§1.1):
	// the interface stops forwarding until the deadline, then grows back
	// with no timer or mutation. AddOIF and AddLocalOIF clear it. Sparse
	// mode never sets it. Pruned and PrunePending share PruneDeadline and
	// are never both set.
	Pruned        bool
	PruneDeadline netsim.Time
}

// inlineOIFCap is the number of outgoing interfaces stored directly in the
// entry; fan-outs beyond it spill to a heap slice. One covers most entries:
// on a 1 024-router sparse-mode internet with membership churn, most hold
// at most one oif (DESIGN.md §16), and a wider inline list would cost every
// entry its bytes.
const inlineOIFCap = 1

// Entry is one multicast forwarding entry.
type Entry struct {
	Key Key
	// RP is the rendezvous point associated with the group (kept in all
	// entry kinds so upstream join/prune messages can carry it).
	RP addr.IP
	// Wildcard is the WC bit: set for (*,G).
	Wildcard bool
	// SPTBit records a completed shared-tree→SPT transition (§3.3); only
	// meaningful on (S,G) entries without the RP bit. Its one writer in
	// PIM-SM is core's Router.upstream (DESIGN.md §21).
	SPTBit bool
	// UpstreamNeighbor is the next-hop address toward the source/RP that
	// periodic join/prune messages target; 0 when IIF is nil.
	UpstreamNeighbor addr.IP
	// IIF is the expected arrival interface (RPF interface toward the
	// source, or toward the RP for wildcard/RP-bit entries). Nil at the RP
	// itself for (*,G) (§3.2: "the incoming interface in the RP's (*,G)
	// entry is set to null") and at a source's first-hop router for (S,G).
	IIF *netsim.Iface
	// DeleteAt, when nonzero, marks the entry for removal once reached
	// (set when the oif list goes null, §3.6). Adding an oif leaves it
	// alone: the engine that sets it decides when an entry revives.
	DeleteAt netsim.Time
	// SuppressedUntil implements §3.7 join suppression on LANs: hearing
	// another router's identical join postpones this entry's own periodic
	// refresh until the recorded time.
	SuppressedUntil netsim.Time
	// PrunedUntil is when the prune a flood-and-prune router sent upstream
	// lapses: until then upstream holds this branch off, so renewed
	// interest must graft. Zero when no prune is in force; sparse mode
	// never sets it.
	PrunedUntil netsim.Time

	// The outgoing-interface list, packed and sorted by Iface.Index: the
	// first inlineOIFCap elements inline and the rest in the spill array,
	// spillLen of its spillCap elements in use. An unused inline slot has a
	// nil Iface, so the list keeps no length of its own. The spill array is
	// a pointer and two 16-bit counts rather than a 24-byte slice header:
	// an entry's oifs are distinct interfaces of one node, of which there
	// are fewer than 2^16 (unicast.MaxArcs).
	oifInline [inlineOIFCap]OIF
	spill     *OIF
	spillLen  uint16
	spillCap  uint16

	// life identifies this incarnation of the entry: the arena assigns a
	// fresh value on every creation, so timer closures can detect
	// delete/re-create across their delay by comparing Life() (pointer
	// identity is not enough: the arena recycles slots). It is 32-bit to
	// fit beside the spill counts; it would repeat only after 2^32
	// creations in one simulation.
	life uint32
}

// Life identifies this incarnation of the entry. A timer closure that must
// act on "the entry as it was scheduled" captures the Key and Life,
// re-looks the entry up at fire time, and bails if Life changed.
func (e *Entry) Life() uint32 { return e.life }

// spilled returns the spill array's elements in use (nil when the entry
// never spilled).
func (e *Entry) spilled() []OIF { return unsafe.Slice(e.spill, e.spillCap)[:e.spillLen] }

// setSpill records s as the spill array.
func (e *Entry) setSpill(s []OIF) {
	if len(s) > math.MaxUint16 {
		panic(fmt.Sprintf("mfib: %v has %d spilled oifs, beyond 16 bits", e, len(s)))
	}
	e.spill, e.spillLen, e.spillCap = unsafe.SliceData(s), uint16(len(s)), uint16(min(cap(s), math.MaxUint16))
}

// oifAt returns the i-th slot of the packed oif list.
func (e *Entry) oifAt(i int) *OIF {
	if i < inlineOIFCap {
		return &e.oifInline[i]
	}
	return &e.spilled()[i-inlineOIFCap]
}

// OIFCount returns the number of interfaces in the list (live or not).
func (e *Entry) OIFCount() int {
	if e.spillLen > 0 {
		return inlineOIFCap + int(e.spillLen)
	}
	n := 0
	for n < inlineOIFCap && e.oifInline[n].Iface != nil {
		n++
	}
	return n
}

// oifFind locates the interface index in the sorted list: (position, true)
// when present, (insertion point, false) when absent.
func (e *Entry) oifFind(idx int) (int, bool) {
	n := e.OIFCount()
	for i := 0; i < n; i++ {
		j := e.oifAt(i).Iface.Index
		if j == idx {
			return i, true
		}
		if j > idx {
			return i, false
		}
	}
	return n, false
}

// oifInsert opens the slot at pos and writes o, keeping the list packed.
func (e *Entry) oifInsert(pos int, o OIF) *OIF {
	n := e.OIFCount()
	if n >= inlineOIFCap {
		e.setSpill(append(e.spilled(), OIF{}))
	}
	for i := n; i > pos; i-- {
		*e.oifAt(i) = *e.oifAt(i - 1)
	}
	p := e.oifAt(pos)
	*p = o
	return p
}

// oifRemoveAt closes the slot at pos, keeping the list packed.
func (e *Entry) oifRemoveAt(pos int) {
	n := e.OIFCount()
	for i := pos; i < n-1; i++ {
		*e.oifAt(i) = *e.oifAt(i + 1)
	}
	*e.oifAt(n - 1) = OIF{} // drop the Iface pointer, ending the list
	if n-1 >= inlineOIFCap {
		e.spillLen = uint16(n - 1 - inlineOIFCap)
	}
}

// OIFAt returns the i-th outgoing interface in index order. The pointer is
// valid only until the next structural list mutation.
func (e *Entry) OIFAt(i int) *OIF { return e.oifAt(i) }

// OIF returns the state for the given interface index, or nil. The pointer
// is valid only until the next structural list mutation.
func (e *Entry) OIF(ifaceIndex int) *OIF {
	if pos, ok := e.oifFind(ifaceIndex); ok {
		return e.oifAt(pos)
	}
	return nil
}

// AddOIF inserts or refreshes an outgoing interface driven by a downstream
// join, clearing any pending prune (a join overrides a pending LAN prune).
func (e *Entry) AddOIF(ifc *netsim.Iface, expires netsim.Time) *OIF {
	pos, ok := e.oifFind(ifc.Index)
	var o *OIF
	if ok {
		o = e.oifAt(pos)
	} else {
		o = e.oifInsert(pos, OIF{Iface: ifc})
	}
	if expires > o.Expires {
		o.Expires = expires
	}
	o.PrunePending, o.Pruned = false, false
	return o
}

// AddLocalOIF inserts or marks an interface as having a local member.
func (e *Entry) AddLocalOIF(ifc *netsim.Iface) *OIF {
	pos, ok := e.oifFind(ifc.Index)
	var o *OIF
	if ok {
		o = e.oifAt(pos)
	} else {
		o = e.oifInsert(pos, OIF{Iface: ifc})
	}
	o.LocalMember = true
	o.PrunePending, o.Pruned = false, false
	return o
}

// RemoveOIF drops an interface from the list.
func (e *Entry) RemoveOIF(ifc *netsim.Iface) {
	if pos, ok := e.oifFind(ifc.Index); ok {
		e.oifRemoveAt(pos)
	}
}

// HasOIF reports whether the interface is currently in the live list.
func (e *Entry) HasOIF(ifc *netsim.Iface, now netsim.Time) bool {
	o := e.OIF(ifc.Index)
	return o != nil && o.Live(now)
}

// Live reports whether the oif should still receive packets: a local member
// holds it open; otherwise a flood-and-prune cut must have lapsed and the
// join timer must be unexpired. A pending LAN prune does not stop
// forwarding until its deadline fires (§3.7 gives other routers the
// override window).
func (o *OIF) Live(now netsim.Time) bool {
	if o.LocalMember {
		return true
	}
	if o.Pruned && now < o.PruneDeadline {
		return false
	}
	return now <= o.Expires
}

// AppendLiveOIFs appends the interfaces to forward over — excluding the
// given arrival interface, in ascending index order — to dst and returns it.
// Appending into a recycled dst keeps per-packet fan-outs and other hot
// walks allocation-free.
func (e *Entry) AppendLiveOIFs(dst []*netsim.Iface, now netsim.Time, except *netsim.Iface) []*netsim.Iface {
	for i, n := 0, e.OIFCount(); i < n; i++ {
		o := e.oifAt(i)
		if !o.Live(now) {
			continue
		}
		if except != nil && o.Iface == except {
			continue
		}
		dst = append(dst, o.Iface)
	}
	return dst
}

// AppendShared appends the §3.5 shared-tree fan-out to dst: the (*,G) live
// list minus the interfaces the (S,G)RP-bit negative cache rpt effectively
// prunes for this source (§3.3 fn. 11). rpt may be nil.
func AppendShared(dst []*netsim.Iface, wc, rpt *Entry, now netsim.Time, except *netsim.Iface) []*netsim.Iface {
	for i, n := 0, wc.OIFCount(); i < n; i++ {
		o := wc.oifAt(i)
		if o.Live(now) && o.Iface != except && !rpt.prunes(o.Iface, now) {
			dst = append(dst, o.Iface)
		}
	}
	return dst
}

// AppendUnion appends the (S,G)∪shared fan-out used when a packet passes the
// (S,G) iif check: the SPT list united with the inherited shared-tree list
// (§3.3's copy-at-creation, done race-free at forwarding time — DESIGN.md
// §4), never back out of the SPT iif. wc and rpt may be nil. Deduplication
// is a linear scan over the handful of interfaces already appended: fan-outs
// are small, and it keeps the append allocation-free.
func AppendUnion(dst []*netsim.Iface, sg, wc, rpt *Entry, now netsim.Time, except *netsim.Iface) []*netsim.Iface {
	base := len(dst)
	dst = sg.AppendLiveOIFs(dst, now, except)
	if wc == nil {
		return dst
	}
	for i, n := 0, wc.OIFCount(); i < n; i++ {
		o := wc.oifAt(i)
		if o.Live(now) && o.Iface != except && o.Iface != sg.IIF &&
			!slices.Contains(dst[base:], o.Iface) && !rpt.prunes(o.Iface, now) {
			dst = append(dst, o.Iface)
		}
	}
	return dst
}

// prunes reports whether the negative cache e (nil for none) cuts ifc off
// the shared tree: a live entry whose LAN prune is no longer pending.
func (e *Entry) prunes(ifc *netsim.Iface, now netsim.Time) bool {
	if e == nil {
		return false
	}
	o := e.OIF(ifc.Index)
	return o != nil && o.Live(now) && !o.PrunePending
}

// OIFEmpty reports whether no live outgoing interface remains.
func (e *Entry) OIFEmpty(now netsim.Time) bool {
	for i, n := 0, e.OIFCount(); i < n; i++ {
		if e.oifAt(i).Live(now) {
			return false
		}
	}
	return true
}

// String renders the entry in the paper's notation for traces and tests.
func (e *Entry) String() string {
	kind := fmt.Sprintf("(%v,%v)", e.Key.Source, e.Key.Group)
	if e.Wildcard {
		kind = fmt.Sprintf("(*,%v)", e.Key.Group)
	} else if e.Key.RPBit {
		kind += "RPbit"
	}
	return kind
}
