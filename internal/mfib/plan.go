package mfib

import (
	"slices"

	"pim/internal/netsim"
)

// This file compiles §3.5 forwarding decisions into flat fan-out slices.
//
// Recomputing the outgoing-interface list per packet means walking the oif
// list, testing per-oif timers and subtracting the (S,G)RP-bit negative
// cache — all allocating a fresh slice. In steady state nothing in that
// computation changes between packets, so the result is cached as a plan: the compiled slice plus everything needed to prove it
// is still current. A plan is valid while
//
//   - each dependency entry is the same object at the same generation
//     (every OIF/IIF mutation bumps the owning entry's generation via
//     Touch; a recycled arena slot continues its generation past any pinned
//     value), and
//   - simulated time has not passed validUntil, the earliest future oif
//     expiry or prune lapse among the dependencies (timer-driven liveness
//     changes are the one way a list changes with no mutation).
//
// Compilation appends through the same append-style functions the
// uncached reference lists in plan_test.go wrap (TestPlansMatchReferenceLists
// holds the two equal — same interfaces, same order). The append forms also
// make a steady-state recompile allocation-free once the plan's slice has
// grown to its working capacity.

// Plan kinds: a plain entry list (§3.6 oif timers folded in), the shared
// tree minus the negative cache (§3.3 fn. 11), and the SPT∪shared union
// used after an iif-matching (S,G) packet (§3.5, DESIGN.md §4).
const (
	planSelf = int8(iota)
	planShared
	planUnion
)

// maxTime is "no timer-driven invalidation pending".
const maxTime = netsim.Time(1) << 62

// planDep pins one dependency entry at the generation it was compiled at.
// A nil entry is itself a valid dependency state ("no negative cache
// existed"): its later appearance changes the plan host, so the stale slot
// is never consulted.
type planDep struct {
	e   *Entry
	gen uint64
}

func (d planDep) valid(e *Entry) bool { return d.e == e && (e == nil || d.gen == e.gen) }

// plan is one compiled fan-out. Entries hold a small slice of them, one per
// (kind, arrival interface) pair seen; a router's entry is consulted with
// at most a couple of distinct arrival interfaces, so linear search wins
// over a map and stays allocation-free.
type plan struct {
	kind       int8
	except     *netsim.Iface
	out        []*netsim.Iface
	validUntil netsim.Time
	deps       [3]planDep
}

// compile (re)builds the fan-out slice in place, reusing its capacity.
func (p *plan) compile(d0, d1, d2 *Entry, now netsim.Time) {
	switch p.kind {
	case planSelf:
		p.out = d0.AppendLiveOIFs(p.out[:0], now, p.except)
	case planShared:
		p.out = appendShared(p.out[:0], d0, d1, now, p.except)
	case planUnion:
		p.out = appendUnion(p.out[:0], d0, d1, d2, now, p.except)
	}
	u := maxTime
	u = minFutureExpiry(d0, now, u)
	u = minFutureExpiry(d1, now, u)
	u = minFutureExpiry(d2, now, u)
	p.validUntil = u
	p.deps[0] = dep(d0)
	p.deps[1] = dep(d1)
	p.deps[2] = dep(d2)
}

func dep(e *Entry) planDep {
	if e == nil {
		return planDep{}
	}
	return planDep{e: e, gen: e.gen}
}

// minFutureExpiry folds an entry's join-timer horizon into the plan
// validity: the earliest not-yet-passed expiry of a non-local oif, or the
// instant before a pruned oif grows back, is the last instant the compiled
// list is sure to hold without any mutation (an already-expired oif can
// only re-enter via AddOIF, which bumps the generation).
func minFutureExpiry(e *Entry, now, until netsim.Time) netsim.Time {
	if e == nil {
		return until
	}
	for i := 0; i < int(e.noif); i++ {
		o := e.oifAt(i)
		if o.LocalMember {
			continue
		}
		if o.Expires >= now && o.Expires < until {
			until = o.Expires
		}
		if o.Pruned && o.PruneDeadline > now && o.PruneDeadline-1 < until {
			until = o.PruneDeadline - 1
		}
	}
	return until
}

// lookupPlan finds or creates the plan for (kind, except) on e, recompiling
// if stale, and returns its fan-out slice. Callers must treat the slice as
// read-only and must not hold it across entry mutations.
func (e *Entry) lookupPlan(kind int8, except *netsim.Iface, d0, d1, d2 *Entry, now netsim.Time) []*netsim.Iface {
	for i := range e.plans {
		p := &e.plans[i]
		if p.kind != kind || p.except != except {
			continue
		}
		if now > p.validUntil ||
			!p.deps[0].valid(d0) || !p.deps[1].valid(d1) || !p.deps[2].valid(d2) {
			p.compile(d0, d1, d2, now)
		}
		return p.out
	}
	// Reuse a recycled slot's element, and with it the fan-out capacity
	// compile appends into: Upsert keeps plans[:0] for exactly this.
	e.plans = slices.Grow(e.plans, 1)[:len(e.plans)+1]
	p := &e.plans[len(e.plans)-1]
	p.kind, p.except = kind, except
	p.compile(d0, d1, d2, now)
	return p.out
}

// ForwardOIFs is the per-packet form of AppendLiveOIFs: the entry's live
// outgoing interfaces excluding the arrival interface, served from a
// compiled plan when valid.
func (e *Entry) ForwardOIFs(now netsim.Time, except *netsim.Iface) []*netsim.Iface {
	return e.lookupPlan(planSelf, except, e, nil, nil, now)
}

// SharedForward is the §3.5 shared-tree fan-out: the (*,G) live list minus
// the interfaces the (S,G)RP-bit negative cache effectively prunes for this
// source. rpt may be nil. The plan lives on the rpt entry when one exists
// (its lifetime bounds the subtraction's) and on wc otherwise.
func SharedForward(wc, rpt *Entry, now netsim.Time, except *netsim.Iface) []*netsim.Iface {
	host := wc
	if rpt != nil {
		host = rpt
	}
	return host.lookupPlan(planShared, except, wc, rpt, nil, now)
}

// UnionForward is the (S,G)∪shared fan-out used when a packet passes the
// (S,G) iif check: the SPT list united with the inherited shared-tree list
// (§3.3's copy-at-creation, done race-free at forwarding time — DESIGN.md
// §4). wc and rpt may be nil.
func UnionForward(sg, wc, rpt *Entry, now netsim.Time, except *netsim.Iface) []*netsim.Iface {
	return sg.lookupPlan(planUnion, except, sg, wc, rpt, now)
}

// appendShared appends the shared-tree fan-out to dst: the (*,G) live list
// minus the interfaces the negative cache prunes for this source.
func appendShared(dst []*netsim.Iface, wc, rpt *Entry, now netsim.Time, except *netsim.Iface) []*netsim.Iface {
	for i := 0; i < int(wc.noif); i++ {
		o := wc.oifAt(i)
		if !o.Live(now) {
			continue
		}
		if except != nil && o.Iface == except {
			continue
		}
		if rpt != nil {
			if ro := rpt.OIF(o.Iface.Index); ro != nil && ro.Live(now) && !ro.PrunePending {
				continue // pruned for this source (§3.3 fn. 11)
			}
		}
		dst = append(dst, o.Iface)
	}
	return dst
}

// appendUnion appends the SPT∪shared fan-out to dst. Deduplication is a
// linear scan over the handful of already-appended interfaces — fan-outs
// are small, and it keeps the recompile allocation-free.
func appendUnion(dst []*netsim.Iface, sg, wc, rpt *Entry, now netsim.Time, except *netsim.Iface) []*netsim.Iface {
	base := len(dst)
	dst = sg.AppendLiveOIFs(dst, now, except)
	if wc == nil {
		return dst
	}
	for i := 0; i < int(wc.noif); i++ {
		o := wc.oifAt(i)
		if !o.Live(now) {
			continue
		}
		if except != nil && o.Iface == except {
			continue
		}
		if o.Iface == sg.IIF {
			continue
		}
		if rpt != nil {
			if ro := rpt.OIF(o.Iface.Index); ro != nil && ro.Live(now) && !ro.PrunePending {
				continue
			}
		}
		dup := false
		for _, have := range dst[base:] {
			if have.Index == o.Iface.Index {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, o.Iface)
		}
	}
	return dst
}
