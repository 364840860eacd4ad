// Package pimdm implements PIM dense mode, the paper's companion protocol
// (reference [13], discussed in §1.3 fn. 15 and §4): DVMRP-style
// flood-and-prune that is independent of the unicast routing protocol — it
// consumes the same unicast.Router interface as sparse mode — and uses PIM
// message formats (join/prune with the shared LAN semantics, graft, and
// assert for electing a single forwarder on multi-access subnets).
//
// The §4 interoperation discussion ("links should be configurable to
// operate in dense mode or in sparse mode") is exercised two ways: comparison
// benchmarks run dense and sparse mode over the same topologies, and
// internal/border splices a dense region onto a sparse tree. For the splice
// the border must learn "group member existence information" from the region;
// that exchange lives here and is solicited and change-driven (DESIGN.md
// §19): routers advertise their groups only while a border asks, so a region
// without a border carries none of it.
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
	// PruneHoldTime is the hold this router's prunes toward a source carry
	// (upstream grows the branch back after it) and how long a lost assert
	// keeps a LAN branch down. A received prune is held for the hold it
	// carries.
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
	// the dense-region interfaces so floods and the member-existence
	// exchange stay inside the region (§4 interoperation).
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
// override, asserts, and the §4 member-existence exchange.
type Router struct {
	engine.Flood
	Cfg Config

	// jpDec and adDec are decode scratch, valid only within one handler call.
	// adGroups and adMsg back the messages this router originates, so the
	// warm origination and relay paths allocate nothing.
	jpDec    pimmsg.JoinPrune
	adDec    pimmsg.MemberAd
	adGroups []addr.IP
	adMsg    pimmsg.MemberAd

	// Member-existence exchange (§4 dense/sparse interop, DESIGN.md §19). A
	// consumer — the dense instance of a border router — floods a
	// solicitation every QueryInterval; a router holding a live solicitation
	// floods the groups it has members for, on change and periodically while
	// the list is non-empty. solicitors and advertisers remember, per origin,
	// the newest flood of each kind: every router needs that to suppress
	// duplicates, and only a consumer also keeps the advertised groups.
	consumer    bool
	onRegion    func(g addr.IP, present bool)
	solSeq      uint32
	adSeq       uint32
	solicitors  map[addr.IP]adState
	advertisers map[addr.IP]adState
	// regionPresent is the sorted set of groups with a member somewhere in
	// the region, union its rebuild scratch (consumer only).
	regionPresent []addr.IP
	union         []addr.IP
}

// adState is what a router keeps of one origin's floods of one kind: the
// newest sequence number and when it arrived (soft state, live for
// 3 × QueryInterval). groups, sorted, is filled only by a consumer and only
// for advertisements.
type adState struct {
	seq    uint32
	seen   netsim.Time
	groups []addr.IP
}

// codec spells the machine's upstream messages in PIM join/prune format:
// prunes multicast to all routers so LAN peers can override them (§3.7),
// grafts unicast to the upstream neighbor.
var codec = engine.Codec{
	Proto: packet.ProtoPIM,
	Prune: func(b []byte, s, g, to addr.IP, holdSec uint16) ([]byte, addr.IP) {
		m := &pimmsg.JoinPrune{
			UpstreamNeighbor: to,
			HoldTime:         holdSec,
			Groups: []pimmsg.GroupRecord{{
				Group:  g,
				Prunes: []pimmsg.Addr{{Addr: s}},
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

// NewConsumer builds the dense-mode instance of a border router: the one kind
// of router that reads the region's member existence. It solicits the
// region's advertisements, caches them, and calls onChange when a group's
// region-wide member presence (local or advertised) toggles.
func NewConsumer(nd *netsim.Node, cfg Config, uni unicast.Router, onChange func(g addr.IP, present bool)) *Router {
	r := New(nd, cfg, uni)
	r.consumer, r.onRegion = true, onChange
	return r
}

// Start registers handlers and begins querying.
func (r *Router) Start() {
	r.Flood.Start(func() {
		r.Every(0, r.Cfg.QueryInterval, func() {
			r.Nbrs.Expire(r.Now(), nil)
			r.expireMemberAds()
			r.sendQueries()
			if r.consumer {
				r.solicit()
			}
			r.advertise(false)
		})
	})
}

// Stop detaches the router and discards all soft state: the flood-and-prune
// machine's, and everything heard of the member-existence exchange. The two
// sequence numbers survive — peers compare them with signed wraparound and
// would discard a restarted router's floods if it restarted from zero.
func (r *Router) Stop() {
	r.Chassis.Stop(r.StateCount(), func() {
		r.Reset()
		r.resetRegion()
	})
}

func (r *Router) resetRegion() {
	r.solicitors = map[addr.IP]adState{}
	r.advertisers = map[addr.IP]adState{}
	r.regionPresent = r.regionPresent[:0]
}

// Restart brings a stopped router back empty, rebuilding purely from
// soft-state refresh (flood-and-prune re-learns forwarding state from the
// data packets themselves).
func (r *Router) Restart() {
	r.Stop()
	r.Start()
}

// --- Membership ---

// LocalJoin records a member and grafts pruned branches back.
func (r *Router) LocalJoin(ifc *netsim.Iface, g addr.IP) {
	had := r.Local.Any(g)
	r.Flood.LocalJoin(ifc, g)
	if !had {
		r.localGroupsChanged()
	}
}

// LocalLeave removes a member; empty branches prune upstream.
func (r *Router) LocalLeave(ifc *netsim.Iface, g addr.IP) {
	had := r.Local.Any(g)
	r.Flood.LocalLeave(ifc, g)
	if had && !r.Local.Any(g) {
		r.localGroupsChanged()
	}
}

// localGroupsChanged tells whoever consumes member existence — the region's
// borders, and this router itself if it is one — that the set of groups with
// a local member changed.
func (r *Router) localGroupsChanged() {
	r.advertise(true)
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
			if r.Heard(in, pkt.Src, netsim.Time(q.HoldTime)*netsim.Second) {
				r.resolicit(in)
			}
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

// --- Member-existence exchange (§4 interop) ---

// live reports whether a flood heard at st.seen still counts: soft state,
// three refresh periods.
func (r *Router) live(st adState) bool { return r.Now()-st.seen <= 3*r.Cfg.QueryInterval }

// solicited reports whether some consumer is listening.
func (r *Router) solicited() bool {
	for _, st := range r.solicitors {
		if r.live(st) {
			return true
		}
	}
	return false
}

// solicit floods this consumer's periodic request for advertisements.
func (r *Router) solicit() {
	r.solSeq++
	r.adMsg = pimmsg.MemberAd{Origin: r.Node.Addr(), Seq: r.solSeq, Consumer: true}
	r.floodMemberAd(&r.adMsg, nil)
}

// advertise floods the groups this router has members for, if a consumer is
// listening. An empty list is worth a message only as a withdrawal: once,
// from the leave that emptied it (a lost one is covered by the consumer's
// expiry).
func (r *Router) advertise(withdrawal bool) {
	if !r.solicited() {
		return
	}
	r.adGroups = r.Local.Groups(r.adGroups[:0])
	if len(r.adGroups) == 0 && !withdrawal {
		return
	}
	r.adSeq++
	r.adMsg = pimmsg.MemberAd{Origin: r.Node.Addr(), Seq: r.adSeq, Groups: r.adGroups}
	r.floodMemberAd(&r.adMsg, nil)
}

// handleMemberAd is the one flood routine of the exchange: drop what was seen
// before, remember and relay what is new, then act on it by kind.
func (r *Router) handleMemberAd(in *netsim.Iface, body []byte) {
	ad := &r.adDec
	if err := pimmsg.UnmarshalMemberAdInto(ad, body); err != nil || ad.Origin == r.Node.Addr() {
		return
	}
	heard := r.advertisers
	if ad.Consumer {
		heard = r.solicitors
	}
	st, known := heard[ad.Origin]
	if known && int32(ad.Seq-st.seq) <= 0 {
		return
	}
	newcomer := !known || !r.live(st)
	st.seq, st.seen = ad.Seq, r.Now()
	if r.consumer && !ad.Consumer {
		st.groups = append(st.groups[:0], ad.Groups...)
	}
	heard[ad.Origin] = st
	r.floodMemberAd(ad, in)
	switch {
	case ad.Consumer:
		// A consumer we did not know, or had given up on, has nothing
		// cached: tell it now rather than at the next refresh.
		if newcomer {
			r.advertise(false)
		}
	case r.consumer:
		r.recomputeRegionPresence()
	}
}

// resolicit hands the live solicitations to a neighbor that just came up on
// out. It missed their floods, and would otherwise say nothing about its
// members until each consumer's next period.
func (r *Router) resolicit(out *netsim.Iface) {
	if !r.consumer && len(r.solicitors) == 0 {
		return
	}
	send := func(origin addr.IP, seq uint32) {
		r.adMsg = pimmsg.MemberAd{Origin: origin, Seq: seq, Consumer: true}
		r.encodeMemberAd(&r.adMsg)
		r.transmitMemberAd(&r.adMsg, out)
	}
	if r.consumer && r.solSeq != 0 {
		send(r.Node.Addr(), r.solSeq)
	}
	// Sorted: send order is delivery order, which loss draws follow.
	origins := make([]addr.IP, 0, len(r.solicitors))
	for origin, st := range r.solicitors {
		if r.live(st) {
			origins = append(origins, origin)
		}
	}
	slices.Sort(origins)
	for _, origin := range origins {
		send(origin, r.solicitors[origin].seq)
	}
}

func (r *Router) floodMemberAd(ad *pimmsg.MemberAd, except *netsim.Iface) {
	r.encodeMemberAd(ad)
	for _, ifc := range r.Node.Ifaces {
		if ifc != except && r.Eligible(ifc) {
			r.transmitMemberAd(ad, ifc)
		}
	}
}

func (r *Router) encodeMemberAd(ad *pimmsg.MemberAd) {
	r.Enc.Buf = ad.MarshalTo(pimmsg.AppendEnvelope(r.Enc.Buf[:0], pimmsg.TypeMemberAd))
}

// transmitMemberAd sends ad, which encodeMemberAd left in the scratch, on out.
func (r *Router) transmitMemberAd(ad *pimmsg.MemberAd, out *netsim.Iface) {
	r.Node.Send(out, r.Enc.Packet(out.Addr, addr.AllRouters, packet.ProtoPIM, 1), 0)
	r.Metrics.Inc(metrics.CtrlMemberAd)
	r.Pub(telemetry.MemberAdSend, out.Index, ad.Origin, 0, int64(len(ad.Groups)))
}

// expireMemberAds drops what has gone unrefreshed (soft state: a crashed
// member router must not pin the border to the sparse tree forever, and a
// region whose last border died must fall silent).
func (r *Router) expireMemberAds() {
	for origin, st := range r.solicitors {
		if !r.live(st) {
			delete(r.solicitors, origin)
		}
	}
	changed := false
	for origin, st := range r.advertisers {
		if !r.live(st) {
			delete(r.advertisers, origin)
			changed = changed || len(st.groups) > 0
		}
	}
	if changed {
		r.recomputeRegionPresence()
	}
}

// RegionHasMembers reports whether any router in the region (including this
// one) has members for g. Only a consumer knows about other routers.
func (r *Router) RegionHasMembers(g addr.IP) bool {
	_, advertised := slices.BinarySearch(r.regionPresent, g)
	return advertised || r.Local.Any(g)
}

// recomputeRegionPresence rebuilds a consumer's region-wide group set and
// reports the groups whose presence toggled.
func (r *Router) recomputeRegionPresence() {
	if !r.consumer {
		return
	}
	next := r.Local.Groups(r.union[:0])
	for _, st := range r.advertisers {
		next = append(next, st.groups...)
	}
	slices.Sort(next)
	next = slices.Compact(next)
	prev := r.regionPresent
	r.regionPresent, r.union = next, prev
	// Callback order must not follow map iteration: the border hooks send
	// joins/grafts, and under injected loss the draw sequence is consumed
	// in delivery order. Fire toggles in ascending group order.
	r.reportMissing(next, prev, true)
	r.reportMissing(prev, next, false)
}

// reportMissing reports, as present or absent, each group of the sorted set
// in that the sorted set from lacks.
func (r *Router) reportMissing(in, from []addr.IP, present bool) {
	for _, g := range in {
		for len(from) > 0 && from[0] < g {
			from = from[1:]
		}
		if len(from) == 0 || from[0] != g {
			r.onRegion(g, present)
		}
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
				r.schedulePrune(e, in, grp.Group, netsim.Time(m.HoldTime)*netsim.Second)
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

// schedulePrune applies a prune addressed to us, for the hold it carries: at
// once on a point-to-point link, after the override window on a LAN unless a
// join cancels it first.
func (r *Router) schedulePrune(e *mfib.Entry, in *netsim.Iface, g addr.IP, hold netsim.Time) {
	if r.Local.Has(in.Index, g) {
		return
	}
	if in.Link == nil || !in.Link.IsLAN() {
		r.Prune(e, in, hold)
		return
	}
	o := e.OIF(in.Index)
	if o == nil || !o.Live(r.Now()) {
		// A cut branch keeps its deadline, which the pending prune's
		// would overwrite: the two share the field.
		return
	}
	o.Pruned, o.PrunePending = false, true
	o.PruneDeadline = r.Now() + r.Cfg.PruneOverrideDelay
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
			r.Prune(cur, in, hold)
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
