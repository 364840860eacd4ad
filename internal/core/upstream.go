package core

import (
	"pim/internal/addr"
	"pim/internal/mfib"
	"pim/internal/netsim"
	"pim/internal/pimmsg"
	"pim/internal/telemetry"
)

// upState is whether a router has joined upstream for an entry (DESIGN.md
// §21). The names are RFC 7761 §4.5's; the 1994 paper names none. The state
// is derived, never stored: NotJoined is an entry the caller's upsert just
// created, PrunePending one pruned upstream and waiting out its hold time
// (DeleteAt != 0, which only upstream writes), Joined any other.
type upState uint8

const (
	notJoined upState = iota
	joined
	prunePending
)

func stateOf(e *mfib.Entry, created bool) upState {
	switch {
	case created:
		return notJoined
	case e.DeleteAt != 0:
		return prunePending
	}
	return joined
}

// upKind is what happened to an entry; each is a row of §21's table.
type upKind uint8

const (
	evLocalJoin upKind = iota // a member joined on a local interface (§3.1)
	evJoin                    // a downstream (*,G) or (S,G) join (§3.2, §3.3)
	evUnwanted                // an oif went: wanted(e) may no longer hold (§3.6)
	evSweep                   // maintain's hold-time pass, the same test each period
	evRefresh                 // the periodic refresh (§3.4)
	evRPFChange               // unicast moved the RPF neighbor (§3.8)
	evRPChange                // the entry re-anchored on another RP (§3.9)
	evSPTJoin                 // join the source's tree: a switch, or the RP's answer to a register (§3.3)
	evSPTData                 // data arrived on an (S,G)'s iif with the SPT bit clear (§3.5 exception 2)
	evRptPrune                // a negative cache covers every shared oif (§3.3 fn. 11)
	evRptCancel               // a negative cache emptied
)

// upEvent is one event for upstream. created marks an entry the caller's
// upsert just made; src is the source an (S,G)RP-bit record names, sent on
// the (*,G) entry's upstream; oldIIF and oldUp are where an RPF change
// moved the entry from.
type upEvent struct {
	kind    upKind
	created bool
	src     addr.IP
	oldIIF  *netsim.Iface
	oldUp   addr.IP
}

// upstream is the one place that decides and sends an entry's upstream
// Join or Prune, moves its upState and writes its SPT bit; only
// overhearJoinPrune's §3.7 overrides send otherwise. For evRefresh it
// reports whether the periodic batch carries the entry's join.
func (r *Router) upstream(e *mfib.Entry, ev upEvent) bool {
	st, g := stateOf(e, ev.created), e.Key.Group
	if e.Wildcard && st == prunePending && (ev.kind == evLocalJoin || ev.kind == evJoin) {
		// The group revives: its pruned (S,G)s forget their switch, so
		// shared-tree copies flow and §3.3's switch runs again.
		r.MFIB.ForGroup(g, func(sg *mfib.Entry) {
			if sg.DeleteAt != 0 {
				sg.SPTBit = false
			}
		})
	}
	switch ev.kind {
	case evLocalJoin, evRPChange, evSPTJoin:
		// Any state → Joined, with a triggered join: "a re-joining member
		// must not wait for the next periodic refresh".
		if ev.kind == evSPTJoin && e.IIF != nil && e.UpstreamNeighbor == 0 {
			e.SPTBit = true // a directly connected source: its data is native on the iif
		}
	case evJoin:
		if st != notJoined {
			// item 17: a PrunePending entry becomes Joined without joining
			// upstream, so its branch stays cut until the periodic refresh.
			e.DeleteAt = 0
			return false
		}
	case evSPTData:
		// The first packet on the SPT iif completes the switch (§3.5
		// exception 2); where the two trees diverge, prune the source off
		// the shared tree (§3.3). The (*,G) entry's state is left alone.
		e.SPTBit = true
		r.Pub(telemetry.SPTSwitch, -1, e.Key.Source, g, 1)
		if wc := r.MFIB.Wildcard(g); wc != nil && e.IIF != wc.IIF {
			r.sendJoinPrune(wc.IIF, wc.UpstreamNeighbor, g, jpAddr(wc, e.Key.Source), true)
		}
		return false
	case evRptPrune, evRptCancel:
		// (S,G)RP-bit records leave the (*,G) entry's state alone.
		r.sendJoinPrune(e.IIF, e.UpstreamNeighbor, g, jpAddr(e, ev.src), ev.kind != evRptCancel)
		return false
	default: // evUnwanted, evSweep, evRefresh, evRPFChange: wanted(e) decides
		if ev.kind == evRPFChange {
			// §3.8: shared-tree copies and Registers flow until data
			// arrives on the new iif.
			e.SPTBit = false
		}
		if !r.wanted(e) {
			if st == joined {
				// §3.6: prune, and delete the entry after the hold time. After
				// an RPF change the branch hangs off the old upstream.
				e.DeleteAt = r.Now() + r.Cfg.holdTime()
				iif, up := e.IIF, e.UpstreamNeighbor
				if ev.kind == evRPFChange {
					iif, up = ev.oldIIF, ev.oldUp
				}
				r.sendJoinPrune(iif, up, g, jpAddr(e, 0), true)
			}
			return false
		}
		if ev.kind == evRefresh {
			e.DeleteAt = 0 // an (S,G) revived through the inherited list
			return e.SuppressedUntil <= r.Now()
		}
		if ev.kind != evRPFChange {
			return false // still wanted: the entry keeps its state
		}
	}
	e.DeleteAt = 0
	r.sendJoinPrune(e.IIF, e.UpstreamNeighbor, g, jpAddr(e, 0), false)
	if ev.kind == evRPFChange {
		// §3.8: join out the new interface, even for an (S,G) wanted only
		// through the inherited list (the RP's), and prune the old branch.
		r.sendJoinPrune(ev.oldIIF, ev.oldUp, g, jpAddr(e, 0), true)
	}
	return false
}

// wanted is the one test of whether an entry still needs its upstream
// branch: a live oif of its own for (*,G); for (S,G) one of its own or
// inherited from (*,G), and always at the RP while (*,G) exists — "data
// packets will continue to travel from the source to the RP(s) in order to
// reach new receivers" (§3.10).
func (r *Router) wanted(e *mfib.Entry) bool {
	if e.Wildcard {
		return !e.OIFEmpty(r.Now())
	}
	wc := r.MFIB.Wildcard(e.Key.Group)
	return wc != nil && r.Node.OwnsAddr(wc.RP) || len(r.unionOIFs(e, wc, e.Key.Source, nil)) > 0
}

// jpAddr is the record a join or prune carries: the source with the RP bit
// when src is set, the RP with the WC and RP bits for (*,G), else the
// entry's source.
func jpAddr(e *mfib.Entry, src addr.IP) pimmsg.Addr {
	switch {
	case src != 0:
		return pimmsg.Addr{Addr: src, RP: true}
	case e.Wildcard:
		return pimmsg.Addr{Addr: e.RP, WC: true, RP: true}
	}
	return pimmsg.Addr{Addr: e.Key.Source}
}
