package engine

import (
	"pim/internal/addr"
	"pim/internal/metrics"
	"pim/internal/mfib"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/telemetry"
	"pim/internal/unicast"
)

// Codec is the wire half of a flood-and-prune protocol: how it spells the two
// messages the machine originates toward a source. Decoding stays with the
// protocol, which calls Heard, Prune, GraftFrom and GraftAcked with what it
// decoded (and acknowledges grafts itself, in its own format).
type Codec struct {
	// Proto is the IP protocol number the messages travel under.
	Proto byte
	// Prune appends a prune of (s,g) addressed to neighbor to, in force for
	// holdSec seconds, to b, and names the IP destination: the neighbor, or
	// a multicast group when LAN peers must overhear it.
	Prune func(b []byte, s, g, to addr.IP, holdSec uint16) (msg []byte, dst addr.IP)
	// Graft appends a graft of e to b; grafts are unicast to the upstream
	// neighbor.
	Graft func(b []byte, e *mfib.Entry) []byte
}

// Flood is the truncated reverse-path-broadcast machine of §1.1 that DVMRP and
// PIM dense mode share: the first packet from a source installs (S,G) state
// that floods on every non-leaf interface and on leaves with members;
// downstream prunes cut branches for a hold time after which they grow back;
// a router left with no outgoing interface prunes itself off upstream; and
// grafts — acknowledged, retransmitted with doubling backoff — splice a pruned
// branch back without waiting for the hold time.
//
// Truncation (RFC 1075's child links): a packet that fails the RPF check on
// a point-to-point link prunes the link's peer for nonRPFHold, so the flood
// settles onto the reverse-path tree. That cut is route state, not interest
// state, and events restore it rather than a timer: a route change grafts
// toward the new upstream (§3.8), and a link that comes back up or a
// neighbor heard afresh grows its branch back at once. Prune state lives in
// the MFIB: a cut branch is a Pruned oif with a deadline, and a prune sent
// upstream is the entry's PrunedUntil.
type Flood struct {
	Chassis
	MFIB *mfib.Table
	// Nbrs holds the protocol neighbors heard on each interface; an
	// interface with none is a leaf subnet.
	Nbrs Neighbors
	// Local is IGMP-reported membership.
	Local Members

	// Scope restricts the machine to a subset of the node's interfaces (nil =
	// all): a border router scopes its dense instance to the region-facing
	// interfaces so floods stay inside the region (§4).
	Scope func(*netsim.Iface) bool
	// ExternalInterest, when set, reports that traffic from (s,g) is wanted
	// beyond Scope, which vetoes pruning upstream: a border router keeps the
	// region exporting its sources toward the RP (§4).
	ExternalInterest func(s, g addr.IP) bool

	codec      Codec
	pruneHold  netsim.Time
	graftRetry netsim.Time
	// hooked: Unicast.OnChange and Node.OnLinkChange registrations are
	// append-only, so the callbacks are installed once and gated on
	// Started instead of being re-registered per Start.
	hooked bool
	// grafts holds the retransmission timer of each unacked graft.
	grafts map[mfib.Key]*netsim.Timer
	// suppressed marks branches taken down by Suppress.
	suppressed map[branch]bool
}

// branch names one outgoing interface of one entry.
type branch struct {
	key   mfib.Key
	iface int
}

// nonRPFHold is the hold, in seconds, of the prune a non-RPF arrival sends:
// the 16-bit field's longest, since only a route or link event ends it.
const nonRPFHold = 1<<16 - 1

// NewFlood builds the machine on a chassis. pruneHold is the lifetime
// advertised in upstream prunes; graftRetry is the initial graft
// retransmission interval (doubling, capped at 8×).
func NewFlood(c Chassis, codec Codec, pruneHold, graftRetry netsim.Time) Flood {
	f := Flood{Chassis: c, codec: codec, pruneHold: pruneHold, graftRetry: graftRetry}
	f.MFIB = f.NewMFIB()
	f.Reset()
	return f
}

// Start begins a life (Chassis.Start) and runs boot. The first start also
// subscribes the machine to route changes and link changes on its node.
func (f *Flood) Start(boot func()) {
	f.Chassis.Start(f.StateCount(), func() {
		if !f.hooked {
			f.hooked = true
			f.Unicast.OnChange(func() {
				if f.Started() {
					f.routesChanged()
				}
			})
			f.Node.OnLinkChange(func(ifc *netsim.Iface) {
				if f.Started() {
					f.linkChanged(ifc)
				}
			})
		}
		boot()
	})
}

// Reset discards all soft state: forwarding entries (with their prune
// state), neighbor liveness, local membership and graft retransmission
// timers.
func (f *Flood) Reset() {
	for _, t := range f.grafts {
		t.Stop()
	}
	f.MFIB.Clear()
	f.Nbrs.Reset()
	f.Local.Reset()
	f.grafts = map[mfib.Key]*netsim.Timer{}
	f.suppressed = map[branch]bool{}
}

// StateCount returns the number of forwarding entries.
func (f *Flood) StateCount() int { return f.MFIB.Len() }

// NeighborCount returns the number of live neighbor entries across all
// interfaces — the recovery tests' stale-neighbor probe.
func (f *Flood) NeighborCount() int { return f.Nbrs.Count(f.Now()) }

// Eligible reports whether the machine operates on ifc right now.
func (f *Flood) Eligible(ifc *netsim.Iface) bool {
	return ifc.Up() && ifc.Addr != 0 && (f.Scope == nil || f.Scope(ifc))
}

// --- Membership ---

// LocalJoin records a member and splices ifc back into every active source's
// tree, grafting pruned branches (§1.1).
func (f *Flood) LocalJoin(ifc *netsim.Iface, g addr.IP) {
	f.Local.Add(ifc.Index, g)
	f.MFIB.ForGroup(g, func(e *mfib.Entry) {
		e.AddLocalOIF(ifc)
		f.graftIfPruned(e)
	})
}

// LocalLeave removes a member; sources flowing to a now-dead branch get
// pruned.
func (f *Flood) LocalLeave(ifc *netsim.Iface, g addr.IP) {
	f.Local.Remove(ifc.Index, g)
	now := f.Now()
	f.MFIB.ForGroup(g, func(e *mfib.Entry) {
		if o := e.OIF(ifc.Index); o != nil && o.LocalMember {
			o.LocalMember = false
			if !o.Live(now) {
				e.RemoveOIF(ifc)
			}
		}
		f.maybePruneUpstream(e)
	})
}

// --- Neighbors ---

// Heard renews neighbor from's liveness on in for hold. A neighbor that was
// unknown or had expired re-evaluates existing entries: a restarted transit
// router that saw data before its downstream neighbor's first hello built
// entries with in leaf-classified and absent from every oif list — and since
// entries are only grown by grafts (which the downstream never sends: it kept
// forwarding and has no pruned state), the pre-crash flow would black-hole
// until the prune hold time, or forever when the upstream prune is refreshed.
// Re-adding the branch restores the flood-and-prune contract: data flows
// everywhere a live neighbor sits until that neighbor says prune.
//
// Heard reports whether the adjacency just came up that way, so a protocol
// can hand the neighbor whatever flooded soft state it missed while away.
func (f *Flood) Heard(in *netsim.Iface, from addr.IP, hold netsim.Time) (fresh bool) {
	now := f.Now()
	if _, live := f.Nbrs.Heard(in.Index, from, now, now+hold); live || !f.Eligible(in) {
		return false
	}
	f.MFIB.ForEach(func(e *mfib.Entry) {
		if e.IIF == in || f.suppressed[branch{e.Key, in.Index}] {
			return
		}
		if o := e.OIF(in.Index); o != nil && o.Live(now) {
			return
		}
		e.AddOIF(in, Forever)
		f.graftIfPruned(e)
	})
	return true
}

// --- Prunes ---

// Prune applies a downstream neighbor's prune of e on in: the branch comes
// down until hold has passed and then grows back (§1.1: "pruned branches
// will grow back after a time-out period"), and if nothing is left we prune
// ourselves off upstream. A prune on an interface missing from the list
// still records the cut, so the branch grows back when the neighbor expects.
func (f *Flood) Prune(e *mfib.Entry, in *netsim.Iface, hold netsim.Time) {
	if in == e.IIF {
		return
	}
	o := e.OIF(in.Index)
	if o == nil {
		o = e.AddOIF(in, Forever)
	}
	o.Pruned, o.PrunePending, o.PruneDeadline = true, false, f.Now()+hold
	f.maybePruneUpstream(e)
}

// Suppress takes in off e's outgoing list — with any prune record, so no
// deadline or link-up grows it back — and keeps adjacency-up from restoring
// it for one prune hold time: what losing a LAN forwarder election means.
func (f *Flood) Suppress(e *mfib.Entry, in *netsim.Iface) {
	e.RemoveOIF(in)
	b := branch{e.Key, in.Index}
	f.suppressed[b] = true
	f.After(f.pruneHold, func() { delete(f.suppressed, b) })
}

func upstreamReachable(e *mfib.Entry) bool {
	return e.IIF != nil && e.UpstreamNeighbor != 0 && e.IIF.Up()
}

// maybePruneUpstream sends a prune toward the source when no outgoing
// interface remains. After the advertised hold time upstream resumes sending,
// so the entry's PrunedUntil lapses and data re-populates the branch.
func (f *Flood) maybePruneUpstream(e *mfib.Entry) {
	now := f.Now()
	if !e.OIFEmpty(now) || now < e.PrunedUntil || !upstreamReachable(e) {
		return
	}
	if f.ExternalInterest != nil && f.ExternalInterest(e.Key.Source, e.Key.Group) {
		return
	}
	f.sendPrune(e.IIF, e.Key.Source, e.Key.Group, e.UpstreamNeighbor, uint16(f.pruneHold/netsim.Second))
	e.PrunedUntil = now + f.pruneHold
}

// sendPrune transmits the codec's prune of (s,g) to neighbor to on out.
func (f *Flood) sendPrune(out *netsim.Iface, s, g, to addr.IP, holdSec uint16) {
	var dst addr.IP
	f.Enc.Buf, dst = f.codec.Prune(f.Enc.Buf[:0], s, g, to, holdSec)
	nextHop := dst
	if dst.IsMulticast() {
		nextHop = 0
	}
	f.Node.Send(out, f.Enc.Packet(out.Addr, dst, f.codec.Proto, 1), nextHop)
	f.Metrics.Inc(metrics.CtrlPrune)
	f.Pub(telemetry.PruneSend, out.Index, s, g, 0)
}

// --- Grafts ---

// GraftFrom re-attaches the downstream branch on in that grafted (s,g), and
// propagates the graft upstream if we had pruned ourselves.
func (f *Flood) GraftFrom(in *netsim.Iface, s, g addr.IP) {
	if e := f.MFIB.SG(s, g); e != nil {
		e.AddOIF(in, Forever)
		f.graftIfPruned(e)
	}
}

// GraftAcked cancels the retransmission of the graft for (s,g): it reached
// upstream.
func (f *Flood) GraftAcked(s, g addr.IP) {
	key := mfib.Key{Source: s, Group: g}
	if t := f.grafts[key]; t != nil {
		t.Stop()
		delete(f.grafts, key)
	}
}

func (f *Flood) graftIfPruned(e *mfib.Entry) {
	if f.Now() >= e.PrunedUntil {
		return
	}
	e.PrunedUntil = 0
	f.graft(e)
}

// graft sends e's graft upstream and arms its retransmission.
func (f *Flood) graft(e *mfib.Entry) {
	if f.transmitGraft(e) {
		f.armGraftRetry(e.Key, f.graftRetry)
	}
}

func (f *Flood) transmitGraft(e *mfib.Entry) bool {
	if !upstreamReachable(e) {
		return false
	}
	f.Enc.Buf = f.codec.Graft(f.Enc.Buf[:0], e)
	f.Node.Send(e.IIF, f.Enc.Packet(e.IIF.Addr, e.UpstreamNeighbor, f.codec.Proto, 1), e.UpstreamNeighbor)
	f.Metrics.Inc(metrics.CtrlGraft)
	f.Pub(telemetry.GraftSend, e.IIF.Index, e.Key.Source, e.Key.Group, 0)
	return true
}

// armGraftRetry re-sends the graft for key after backoff, doubling up to 8×
// the initial interval, until GraftAcked or the entry stops wanting traffic.
func (f *Flood) armGraftRetry(key mfib.Key, backoff netsim.Time) {
	if prev := f.grafts[key]; prev != nil {
		prev.Stop()
	}
	f.grafts[key] = f.After(backoff, func() {
		delete(f.grafts, key)
		e := f.MFIB.Get(key)
		if e == nil || e.OIFEmpty(f.Now()) || !f.transmitGraft(e) {
			return
		}
		f.armGraftRetry(key, min(2*backoff, 8*f.graftRetry))
	})
}

// --- Route and link changes ---

// routesChanged is the dense-mode §3.8 rule: every entry's incoming
// interface is re-resolved, and one that moved leaves the outgoing list. The
// new upstream may hold a prune of this branch — a non-RPF one for as long as
// its route lasts — so an entry that still wants traffic grafts to it, and
// one that does not prunes it for the usual hold, which also arms the graft
// a later member sends.
func (f *Flood) routesChanged() {
	now := f.Now()
	f.MFIB.ForEach(func(e *mfib.Entry) {
		if e.UpstreamNeighbor == 0 {
			return // the source is on an attached subnet
		}
		rt, ok := f.RPF.Lookup(e.Key.Source)
		if !ok || !f.Eligible(rt.Iface) || (rt.Iface == e.IIF && rt.NextHop == e.UpstreamNeighbor) {
			return // unmoved, or unreachable in scope: keep the state until it returns
		}
		e.IIF, e.UpstreamNeighbor = rt.Iface, rt.NextHop
		e.RemoveOIF(rt.Iface)
		f.Pub(telemetry.IIFSet, rt.Iface.Index, e.Key.Source, e.Key.Group, telemetry.EntrySG)
		e.PrunedUntil = 0
		if e.OIFEmpty(now) {
			f.maybePruneUpstream(e)
			return
		}
		f.graft(e)
	})
}

// linkChanged grows back, at once, every branch pruned on an interface whose
// link just came up, grafting entries that had pruned themselves off.
func (f *Flood) linkChanged(ifc *netsim.Iface) {
	if !f.Eligible(ifc) || !ifc.Link.IsLAN() && !peer(ifc).Up() {
		return // it went down, or the router across did
	}
	f.MFIB.ForEach(func(e *mfib.Entry) {
		if o := e.OIF(ifc.Index); o != nil && o.Pruned {
			o.Pruned = false
			f.graftIfPruned(e)
		}
	})
}

// --- Data plane ---

// HandleData is the truncated RPF broadcast (§1.1). It reports true when the
// packet failed the RPF check by arriving on the wrong interface, which on a
// LAN is how a protocol detects a parallel forwarder; on a point-to-point
// link it prunes the peer for nonRPFHold.
func (f *Flood) HandleData(in *netsim.Iface, pkt *packet.Packet) (wrongIface bool) {
	s, g := pkt.Src, pkt.Dst
	if !g.IsMulticast() || g.IsLinkLocalMulticast() {
		return false
	}
	// RPF check: accept only on the interface used to reach the source.
	srcLocal := in.Addr != 0 && unicast.LinkPrefix(in.Addr).Contains(s)
	var upstream addr.IP
	if !srcLocal {
		rt, ok := f.RPF.Lookup(s)
		if !ok {
			f.Metrics.Inc(metrics.DataDropped)
			f.Pub(telemetry.NoState, in.Index, s, g, 0)
			return false
		}
		if in != rt.Iface {
			f.Metrics.Inc(metrics.DataDropped)
			f.Pub(telemetry.RPFDrop, in.Index, s, g, 0)
			if l := in.Link; l != nil && !l.IsLAN() && f.Eligible(in) {
				f.sendPrune(in, s, g, peer(in).Addr, nonRPFHold)
			}
			return true
		}
		upstream = rt.NextHop
	}
	now := f.Now()
	e := f.MFIB.SG(s, g)
	if e == nil {
		// First packet from this source: install broadcast state on every
		// interface except the RPF one, truncating member-less leaves.
		e, _ = f.MFIB.Upsert(mfib.Key{Source: s, Group: g}, now)
		e.IIF, e.UpstreamNeighbor = in, upstream
		f.Pub(telemetry.EntryCreate, -1, s, g, telemetry.EntrySG)
		if !srcLocal {
			f.Pub(telemetry.IIFSet, in.Index, s, g, telemetry.EntrySG)
		}
		for _, ifc := range f.Node.Ifaces {
			if ifc == in || !f.Eligible(ifc) {
				continue
			}
			if f.Nbrs.Live(ifc.Index, now, 0) {
				e.AddOIF(ifc, Forever)
			} else if f.Local.Has(ifc.Index, g) {
				e.AddLocalOIF(ifc)
			}
		}
	}
	f.Fanout = e.AppendLiveOIFs(f.Fanout[:0], now, in)
	if len(f.Fanout) == 0 {
		f.maybePruneUpstream(e)
		return false
	}
	fwd, ok := pkt.Forwarded()
	if !ok {
		return false
	}
	for _, out := range f.Fanout {
		f.Forward(out, fwd, 0, s, 0)
	}
	return false
}

// peer is the other end of in's point-to-point link.
func peer(in *netsim.Iface) *netsim.Iface {
	ifs := in.Link.Ifaces
	if ifs[0] == in {
		return ifs[1]
	}
	return ifs[0]
}
