// Package pimdm implements PIM dense mode, the paper's companion protocol
// (reference [13], discussed in §1.3 fn. 15 and §4): DVMRP-style
// flood-and-prune that is independent of the unicast routing protocol — it
// consumes the same unicast.Router interface as sparse mode — and uses PIM
// message formats (join/prune with the shared LAN semantics, graft, and
// assert for electing a single forwarder on multi-access subnets).
//
// The §4 interoperation discussion ("links should be configurable to
// operate in dense mode or in sparse mode") is exercised by comparison
// benchmarks that run dense and sparse mode over the same topologies and
// measure where each wins.
package pimdm

import (
	"slices"

	"pim/internal/addr"
	"pim/internal/engine"
	"pim/internal/metrics"
	"pim/internal/mfib"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/pimmsg"
	"pim/internal/telemetry"
	"pim/internal/unicast"
)

// Config carries the protocol parameters.
type Config struct {
	// PruneHoldTime bounds prune state before the branch grows back.
	PruneHoldTime netsim.Time
	// QueryInterval paces neighbor discovery (leaf detection + asserts).
	QueryInterval netsim.Time
	// PruneOverrideDelay is the LAN override window (shared with sparse
	// mode's §3.7 semantics).
	PruneOverrideDelay netsim.Time
	// GraftRetry is the initial graft retransmission interval: grafts are
	// the one acknowledged (hence reliable) message in dense mode, so an
	// unacked graft is retransmitted with doubling backoff (capped at 8x)
	// until the ack arrives or the entry no longer wants traffic.
	GraftRetry netsim.Time
	// Scope restricts the router to a subset of its interfaces (nil = all).
	// Border routers (internal/border) scope their dense-mode instance to
	// the dense-region interfaces so floods and member advertisements stay
	// inside the region (§4 interoperation).
	Scope func(*netsim.Iface) bool
	// Telemetry, when non-nil, receives structured events for every state
	// transition (see internal/telemetry).
	Telemetry *telemetry.Bus
}

// Defaults.
const (
	DefaultPruneHoldTime      = 120 * netsim.Second
	DefaultQueryInterval      = 30 * netsim.Second
	DefaultPruneOverrideDelay = 3 * netsim.Second
	DefaultGraftRetry         = 3 * netsim.Second
)

// Router is one PIM dense-mode router instance: the shared flood-and-prune
// machine (engine.Flood — data plane, membership, prune and graft state)
// speaking PIM message formats, plus what DVMRP does not have: the LAN prune
// override, asserts, and the §4 member-existence advertisements.
type Router struct {
	engine.Flood
	Cfg Config

	// jpDec is the join/prune decode scratch, valid only within one handler
	// call. adGroups and adMsg back the periodic member advertisement so the
	// warm path allocates nothing.
	jpDec    pimmsg.JoinPrune
	adGroups []addr.IP
	adMsg    pimmsg.MemberAd

	// Member-existence advertisement state (§4 dense/sparse interop):
	// every dense-region router floods the groups it has members for, so
	// border routers can join sparse-mode trees on the region's behalf.
	adSeq     uint32
	regionAds map[addr.IP]map[addr.IP]bool // origin -> groups
	adSeqs    map[addr.IP]uint32
	adSeen    map[addr.IP]netsim.Time // origin -> last advertisement
	// OnRegionMembership fires when a group's region-wide member presence
	// (local or advertised) toggles.
	OnRegionMembership func(g addr.IP, present bool)
	regionPresent      map[addr.IP]bool
}

// codec spells the machine's upstream messages in PIM join/prune format:
// prunes multicast to all routers so LAN peers can override them (§3.7),
// grafts unicast to the upstream neighbor.
var codec = engine.Codec{
	Proto: packet.ProtoPIM,
	Prune: func(b []byte, e *mfib.Entry, holdSec uint16) ([]byte, addr.IP) {
		m := &pimmsg.JoinPrune{
			UpstreamNeighbor: e.UpstreamNeighbor,
			HoldTime:         holdSec,
			Groups: []pimmsg.GroupRecord{{
				Group:  e.Key.Group,
				Prunes: []pimmsg.Addr{{Addr: e.Key.Source}},
			}},
		}
		return m.MarshalTo(pimmsg.AppendEnvelope(b, pimmsg.TypeJoinPrune)), addr.AllRouters
	},
	Graft: func(b []byte, e *mfib.Entry) []byte {
		m := &pimmsg.JoinPrune{
			UpstreamNeighbor: e.UpstreamNeighbor,
			Groups: []pimmsg.GroupRecord{{
				Group: e.Key.Group,
				Joins: []pimmsg.Addr{{Addr: e.Key.Source}},
			}},
		}
		return m.MarshalTo(pimmsg.AppendEnvelope(b, pimmsg.TypeGraft))
	},
}

// New builds a dense-mode router.
func New(nd *netsim.Node, cfg Config, uni unicast.Router) *Router {
	if cfg.PruneHoldTime == 0 {
		cfg.PruneHoldTime = DefaultPruneHoldTime
	}
	if cfg.QueryInterval == 0 {
		cfg.QueryInterval = DefaultQueryInterval
	}
	if cfg.PruneOverrideDelay == 0 {
		cfg.PruneOverrideDelay = DefaultPruneOverrideDelay
	}
	if cfg.GraftRetry == 0 {
		cfg.GraftRetry = DefaultGraftRetry
	}
	r := &Router{
		Flood: engine.NewFlood(engine.NewChassis(nd, uni, cfg.Telemetry), codec, cfg.PruneHoldTime, cfg.GraftRetry),
		Cfg:   cfg,
	}
	r.Scope = cfg.Scope
	r.resetRegion()
	r.Handle(packet.ProtoPIM, r.handlePIM)
	r.Handle(packet.ProtoUDP, r.handleData)
	return r
}

// Start registers handlers and begins querying.
func (r *Router) Start() {
	r.Chassis.Start(r.StateCount(), func() {
		r.Every(0, r.Cfg.QueryInterval, func() {
			r.Nbrs.Expire(r.Now(), nil)
			r.expireMemberAds()
			r.sendQueries()
			r.originateMemberAd()
		})
	})
}

// Stop detaches the router and discards all soft state: the flood-and-prune
// machine's, and the region membership-advertisement cache. The
// advertisement sequence number survives — peers compare it with signed
// wraparound and would discard a restarted router's advertisements if it
// restarted from zero.
func (r *Router) Stop() {
	r.Chassis.Stop(r.StateCount(), func() {
		r.Reset()
		r.resetRegion()
	})
}

func (r *Router) resetRegion() {
	r.regionAds = map[addr.IP]map[addr.IP]bool{}
	r.adSeqs = map[addr.IP]uint32{}
	r.adSeen = map[addr.IP]netsim.Time{}
	r.regionPresent = map[addr.IP]bool{}
}

// Restart brings a stopped router back empty, rebuilding purely from
// soft-state refresh (flood-and-prune re-learns forwarding state from the
// data packets themselves).
func (r *Router) Restart() {
	r.Stop()
	r.Start()
}

// --- Membership ---

// LocalJoin records a member, grafts pruned branches back, and advertises the
// change to the region.
func (r *Router) LocalJoin(ifc *netsim.Iface, g addr.IP) {
	r.Flood.LocalJoin(ifc, g)
	r.originateMemberAd()
	r.recomputeRegionPresence()
}

// LocalLeave removes a member; empty branches prune upstream.
func (r *Router) LocalLeave(ifc *netsim.Iface, g addr.IP) {
	r.Flood.LocalLeave(ifc, g)
	r.originateMemberAd()
	r.recomputeRegionPresence()
}

// --- Control messages ---

func (r *Router) sendQueries() {
	q := pimmsg.Query{HoldTime: uint16(3*r.Cfg.QueryInterval/netsim.Second + 15)}
	r.Enc.Buf = q.MarshalTo(pimmsg.AppendEnvelope(r.Enc.Buf[:0], pimmsg.TypeQuery))
	for _, ifc := range r.Node.Ifaces {
		if r.Eligible(ifc) {
			r.Node.Send(ifc, r.Enc.Packet(ifc.Addr, addr.AllRouters, packet.ProtoPIM, 1), 0)
			r.Metrics.Inc(metrics.CtrlQuery)
		}
	}
}

func (r *Router) handlePIM(in *netsim.Iface, pkt *packet.Packet) {
	typ, body, err := pimmsg.Open(pkt.Payload)
	if err != nil {
		return
	}
	switch typ {
	case pimmsg.TypeQuery:
		var q pimmsg.Query
		if err := pimmsg.UnmarshalQueryInto(&q, body); err == nil {
			r.Heard(in, pkt.Src, netsim.Time(q.HoldTime)*netsim.Second)
		}
	case pimmsg.TypeJoinPrune:
		r.handleJoinPrune(in, body)
	case pimmsg.TypeGraft:
		r.handleGraft(in, pkt.Src, body)
	case pimmsg.TypeGraftAck:
		r.handleGraftAck(body)
	case pimmsg.TypeAssert:
		r.handleAssert(in, pkt.Src, body)
	case pimmsg.TypeMemberAd:
		r.handleMemberAd(in, body)
	}
}

// --- Member-existence advertisements (§4 interop) ---

func (r *Router) originateMemberAd() {
	r.adSeq++
	r.adGroups = r.Local.Groups(r.adGroups[:0])
	r.adMsg = pimmsg.MemberAd{Origin: r.Node.Addr(), Seq: r.adSeq, Groups: r.adGroups}
	r.floodMemberAd(&r.adMsg, nil)
}

func (r *Router) handleMemberAd(in *netsim.Iface, body []byte) {
	ad, err := pimmsg.UnmarshalMemberAd(body)
	if err != nil || ad.Origin == r.Node.Addr() {
		return
	}
	if cur, ok := r.adSeqs[ad.Origin]; ok && int32(ad.Seq-cur) <= 0 {
		return
	}
	r.adSeqs[ad.Origin] = ad.Seq
	r.adSeen[ad.Origin] = r.Now()
	groups := map[addr.IP]bool{}
	for _, g := range ad.Groups {
		groups[g] = true
	}
	r.regionAds[ad.Origin] = groups
	r.floodMemberAd(ad, in)
	r.recomputeRegionPresence()
}

func (r *Router) floodMemberAd(ad *pimmsg.MemberAd, except *netsim.Iface) {
	r.Enc.Buf = ad.MarshalTo(pimmsg.AppendEnvelope(r.Enc.Buf[:0], pimmsg.TypeMemberAd))
	for _, ifc := range r.Node.Ifaces {
		if ifc != except && r.Eligible(ifc) {
			r.Node.Send(ifc, r.Enc.Packet(ifc.Addr, addr.AllRouters, packet.ProtoPIM, 1), 0)
		}
	}
}

// expireMemberAds drops advertisements from routers that have gone silent
// (soft state: a crashed member router must not pin the border to the
// sparse tree forever).
func (r *Router) expireMemberAds() {
	now := r.Now()
	changed := false
	for origin, seen := range r.adSeen {
		if now-seen > 3*r.Cfg.QueryInterval {
			delete(r.adSeen, origin)
			delete(r.adSeqs, origin)
			delete(r.regionAds, origin)
			changed = true
		}
	}
	if changed {
		r.recomputeRegionPresence()
	}
}

// RegionHasMembers reports whether any router in the region (including this
// one) has advertised local members for g.
func (r *Router) RegionHasMembers(g addr.IP) bool {
	if r.Local.Any(g) {
		return true
	}
	for _, groups := range r.regionAds {
		if groups[g] {
			return true
		}
	}
	return false
}

// recomputeRegionPresence fires OnRegionMembership for groups whose
// region-wide presence toggled.
func (r *Router) recomputeRegionPresence() {
	if r.OnRegionMembership == nil {
		return
	}
	seen := map[addr.IP]bool{}
	for _, g := range r.Local.Groups(nil) {
		seen[g] = true
	}
	for _, groups := range r.regionAds {
		for g := range groups {
			seen[g] = true
		}
	}
	// Callback order must not follow map iteration: the border hooks send
	// joins/grafts, and under injected loss the draw sequence is consumed
	// in delivery order. Fire toggles in ascending group order.
	var on, off []addr.IP
	for g := range seen {
		if !r.regionPresent[g] {
			on = append(on, g)
		}
	}
	for g := range r.regionPresent {
		if !seen[g] {
			off = append(off, g)
		}
	}
	slices.Sort(on)
	slices.Sort(off)
	for _, g := range on {
		r.regionPresent[g] = true
		r.OnRegionMembership(g, true)
	}
	for _, g := range off {
		delete(r.regionPresent, g)
		r.OnRegionMembership(g, false)
	}
}

// --- Join/prune with the shared LAN semantics (§3.7) ---

func (r *Router) handleJoinPrune(in *netsim.Iface, body []byte) {
	m := &r.jpDec
	if err := pimmsg.UnmarshalJoinPruneInto(m, body); err != nil {
		return
	}
	mine := m.UpstreamNeighbor == in.Addr
	for _, grp := range m.Groups {
		for _, a := range grp.Prunes {
			e := r.MFIB.SG(a.Addr, grp.Group)
			if e == nil {
				continue
			}
			if mine {
				r.schedulePrune(e, in, grp.Group)
			} else if in.Link != nil && in.Link.IsLAN() {
				// Overheard on the LAN: override if we still depend on it.
				if e.IIF == in && !e.OIFEmpty(r.Now()) {
					r.sendJoinOverride(in, m.UpstreamNeighbor, grp.Group, a.Addr)
				}
			}
		}
		for _, a := range grp.Joins {
			e := r.MFIB.SG(a.Addr, grp.Group)
			if e == nil || !mine {
				continue
			}
			// A join (override) cancels a pending prune and restores the oif.
			e.AddOIF(in, engine.Forever)
		}
	}
}

// schedulePrune applies a prune addressed to us: at once on a point-to-point
// link, after the override window on a LAN unless a join cancels it first.
func (r *Router) schedulePrune(e *mfib.Entry, in *netsim.Iface, g addr.IP) {
	if r.Local.Has(in.Index, g) {
		return
	}
	if in.Link == nil || !in.Link.IsLAN() {
		r.Prune(e, in, r.Cfg.PruneHoldTime)
		return
	}
	o := e.OIF(in.Index)
	if o == nil {
		return
	}
	o.PrunePending = true
	o.PruneDeadline = r.Now() + r.Cfg.PruneOverrideDelay
	e.Touch()
	// Re-look the entry up at fire time: entry/oif pointers must not be
	// held across the delay (the flat store recycles slots), and a join
	// override in the window clears PrunePending, cancelling the prune.
	key, life := e.Key, e.Life()
	r.After(r.Cfg.PruneOverrideDelay, func() {
		cur := r.MFIB.Get(key)
		if cur == nil || cur.Life() != life {
			return
		}
		if co := cur.OIF(in.Index); co != nil && co.PrunePending && r.Now() >= co.PruneDeadline {
			r.Prune(cur, in, r.Cfg.PruneHoldTime)
		}
	})
}

func (r *Router) sendJoinOverride(out *netsim.Iface, upstream, g, s addr.IP) {
	m := &pimmsg.JoinPrune{
		UpstreamNeighbor: upstream,
		HoldTime:         uint16(r.Cfg.PruneHoldTime / netsim.Second),
		Groups:           []pimmsg.GroupRecord{{Group: g, Joins: []pimmsg.Addr{{Addr: s}}}},
	}
	r.Enc.Buf = m.MarshalTo(pimmsg.AppendEnvelope(r.Enc.Buf[:0], pimmsg.TypeJoinPrune))
	r.Node.Send(out, r.Enc.Packet(out.Addr, addr.AllRouters, packet.ProtoPIM, 1), 0)
	r.Metrics.Inc(metrics.CtrlJoinPrune)
	r.Pub(telemetry.JoinPruneSend, out.Index, s, g, 1)
}

// handleGraft acks hop-by-hop by echoing the message, then re-attaches every
// grafted branch.
func (r *Router) handleGraft(in *netsim.Iface, from addr.IP, body []byte) {
	m := &r.jpDec
	if err := pimmsg.UnmarshalJoinPruneInto(m, body); err != nil || m.UpstreamNeighbor != in.Addr {
		return
	}
	r.Enc.Buf = m.MarshalTo(pimmsg.AppendEnvelope(r.Enc.Buf[:0], pimmsg.TypeGraftAck))
	r.Node.Send(in, r.Enc.Packet(in.Addr, from, packet.ProtoPIM, 1), from)
	for _, grp := range m.Groups {
		for _, a := range grp.Joins {
			r.GraftFrom(in, a.Addr, grp.Group)
		}
	}
}

// handleGraftAck clears retransmission state for every (S,G) the upstream
// echoed back in the ack.
func (r *Router) handleGraftAck(body []byte) {
	m := &r.jpDec
	if err := pimmsg.UnmarshalJoinPruneInto(m, body); err != nil {
		return
	}
	for _, grp := range m.Groups {
		for _, a := range grp.Joins {
			r.GraftAcked(a.Addr, grp.Group)
		}
	}
}

// --- Assert (LAN duplicate forwarder election) ---

// handleAssert resolves a parallel-forwarder conflict: the router with the
// lower metric to the source keeps the LAN oif; ties break to the higher
// address. The loser stops forwarding onto this LAN until state rebuilds.
func (r *Router) handleAssert(in *netsim.Iface, from addr.IP, body []byte) {
	a, err := pimmsg.UnmarshalAssert(body)
	if err != nil {
		return
	}
	e := r.MFIB.SG(a.Source, a.Group)
	if e == nil {
		return
	}
	if o := e.OIF(in.Index); o == nil || !o.Live(r.Now()) {
		return
	}
	my := r.metricTo(a.Source)
	if my > int64(a.Metric) || (my == int64(a.Metric) && in.Addr < from) {
		r.Suppress(e, in)
	}
}

func (r *Router) sendAssert(out *netsim.Iface, s, g addr.IP) {
	a := pimmsg.Assert{Group: g, Source: s, Metric: uint32(r.metricTo(s))}
	r.Enc.Buf = a.MarshalTo(pimmsg.AppendEnvelope(r.Enc.Buf[:0], pimmsg.TypeAssert))
	r.Node.Send(out, r.Enc.Packet(out.Addr, addr.AllRouters, packet.ProtoPIM, 1), 0)
	r.Metrics.Inc(metrics.CtrlAssert)
}

func (r *Router) metricTo(s addr.IP) int64 {
	rt, ok := r.RPF.Lookup(s)
	if !ok {
		return 1 << 30
	}
	return rt.Metric
}

// --- Data plane ---

// handleData floods through the shared machine. A packet that failed the RPF
// check by arriving on one of our outgoing LAN interfaces means a parallel
// forwarder exists on that LAN: assert.
func (r *Router) handleData(in *netsim.Iface, pkt *packet.Packet) {
	if r.HandleData(in, pkt) && in.Link != nil && in.Link.IsLAN() {
		if e := r.MFIB.SG(pkt.Src, pkt.Dst); e != nil && e.HasOIF(in, r.Now()) {
			r.sendAssert(in, pkt.Src, pkt.Dst)
		}
	}
}

// HandlePIMPacket is the exported PIM control entry point for border-router
// multiplexing (internal/border).
func (r *Router) HandlePIMPacket(in *netsim.Iface, pkt *packet.Packet) { r.handlePIM(in, pkt) }

// HandleDataPacket is the exported data-plane entry point (see
// HandlePIMPacket).
func (r *Router) HandleDataPacket(in *netsim.Iface, pkt *packet.Packet) { r.handleData(in, pkt) }
