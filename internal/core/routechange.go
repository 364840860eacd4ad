package core

import "pim/internal/mfib"

// routesChanged is the §3.8 adaptation: when unicast routing changes, every
// entry's RPF interface is re-checked. A moved incoming interface is
// removed from the outgoing list if it appears there, and the entry's
// upstream state takes the RPF-change event: a join out the new interface
// to draw the distribution tree over it, and a prune over the old one (if
// still operational) to release the stale branch.
func (r *Router) routesChanged() {
	r.MFIB.ForEach(func(e *mfib.Entry) {
		target := upstreamTarget(e)
		if target == 0 || r.Node.OwnsAddr(target) {
			return
		}
		newIIF, newUp, ok := r.rpf(target)
		if !ok {
			// Target unreachable: keep the state; soft-state expiry or RP
			// fail-over (§3.9) resolves it.
			return
		}
		if newIIF == e.IIF && newUp == e.UpstreamNeighbor {
			return
		}
		ev := upEvent{kind: evRPFChange, oldIIF: e.IIF, oldUp: e.UpstreamNeighbor}
		e.IIF, e.UpstreamNeighbor = newIIF, newUp

		// Negative caches just follow the new shared-tree interface; their
		// prune refreshes flow along the new path on the next cycle.
		if e.Key.RPBit && !e.Wildcard {
			return
		}

		// "If the new incoming interface appears in the outgoing interface
		// list, it is deleted from the outgoing list." (§3.8)
		if newIIF != nil {
			e.RemoveOIF(newIIF)
		}
		r.upstream(e, ev)
	})
}
