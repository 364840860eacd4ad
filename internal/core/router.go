package core

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

// Router is one PIM sparse-mode router instance.
type Router struct {
	engine.Chassis
	Cfg  Config
	MFIB *mfib.Table

	// rpMap overlays Cfg.RPMapping with what this router learned at run time
	// (SetRPMapping, host RPMap messages, the RP named by a (*,G) join); the
	// configured table itself is shared read-only by every router of a
	// deployment (rps reads the two). currentRP tracks which candidate the
	// receiver side of this router has joined toward (§3.9: "receivers only
	// join toward a single RP").
	rpMap     map[addr.IP][]addr.IP
	currentRP map[addr.IP]addr.IP
	// rpTimer fires RP fail-over for groups with local members (§3.9).
	rpTimer map[addr.IP]*netsim.Timer

	// nbrs holds the PIM neighbors learned from queries.
	nbrs engine.Neighbors

	// sptCount tracks §3.3 threshold switching per (S,G).
	sptCount map[mfib.Key]*sptCounter

	// Dynamic RP discovery (§4): flooded RP-report state.
	rpReportSeq  uint32
	rpReportSeqs map[addr.IP]uint32
	learnedRP    map[addr.IP]learnedMapping

	// s is the per-call scratch this router shares with every PIM-SM
	// router of its simulation.
	s *scratch

	// onChangeHooked: Unicast.OnChange registration is append-only, so the
	// callback is installed once and gated on started instead of being
	// re-registered per Start.
	onChangeHooked bool
}

// scratch is the working memory of one handler call or timer body, one per
// simulation (netsim.Scratch, DESIGN.md §13): a simulation runs on one
// goroutine and no core handler runs inside another router's, so 1 024
// routers need one set of buffers, not 1 024 sets each at its own
// high-water mark. Reused across calls, so the steady-state paths allocate
// nothing.
type scratch struct {
	// regInner is the second buffer the register path needs for the
	// encapsulated inner datagram (it is alive while Enc.Buf is being built
	// around it).
	regInner []byte
	// jpDec is the join/prune decode scratch; valid only within one
	// handleJoinPrune call (the record slices are recycled across calls).
	jpDec pimmsg.JoinPrune
	// jpBatch/jpMsg/rptPrunes are the periodic-refresh batching scratch
	// (joinprune.go): destination batches, the outgoing message shell, and
	// the per-group rpt-prune source list.
	jpBatch   []jpDest
	jpMsg     pimmsg.JoinPrune
	rptPrunes []addr.IP
}

// learnedMapping is a cached group→RP mapping from an RP-report.
type learnedMapping struct {
	rp      addr.IP
	expires netsim.Time
}

type sptCounter struct {
	windowStart netsim.Time
	packets     int
}

// New constructs a PIM-SM router bound to a node and a unicast routing view.
func New(nd *netsim.Node, cfg Config, uni unicast.Router) *Router {
	cfg.fillDefaults()
	r := &Router{Chassis: engine.NewChassis(nd, uni, cfg.Telemetry), Cfg: cfg, s: netsim.Scratch[scratch](nd.Net)}
	r.MFIB = r.NewMFIB()
	r.reset()
	r.Handle(packet.ProtoPIM, r.handlePIM)
	r.Handle(packet.ProtoPIMData, r.handlePIM)
	r.Handle(packet.ProtoUDP, r.handleData)
	return r
}

// Start registers packet handlers and begins the periodic machinery.
func (r *Router) Start() { r.Chassis.Start(r.MFIB.Len(), r.boot) }

func (r *Router) boot() {
	if !r.onChangeHooked {
		r.onChangeHooked = true
		r.Unicast.OnChange(func() {
			if r.Started() {
				r.routesChanged()
			}
		})
	}
	// Deterministic per-router phase offset: desynchronized refreshes give
	// §3.7 join suppression a chance to work on shared LANs.
	offset := netsim.Time(uint64(r.Node.ID)*1000003) % (r.Cfg.JoinPruneInterval / 2)
	r.Every(offset, r.Cfg.JoinPruneInterval, func() {
		r.maintain()
		r.periodicRefresh()
	})
	r.Every(0, r.Cfg.QueryInterval, func() {
		r.expireNeighbors()
		r.sendQueries()
	})
	r.Every(0, r.Cfg.RPReachInterval, func() {
		r.originateRPReach()
		r.originateRPReport()
	})
}

// Stop detaches the router from its node and discards every piece of soft
// state: MFIB entries, neighbor liveness, joined-RP choices, learned
// RP-report mappings, SPT counters, and all pending timers. Static
// configuration, the metrics ledger, and the RP-report sequence number
// survive — resetting the sequence number would make peers discard the next
// incarnation's reports as replays.
func (r *Router) Stop() { r.Chassis.Stop(r.MFIB.Len(), r.reset) }

func (r *Router) reset() {
	for _, t := range r.rpTimer {
		t.Stop()
	}
	r.MFIB.Clear()
	r.rpMap = map[addr.IP][]addr.IP{}
	r.currentRP = map[addr.IP]addr.IP{}
	r.rpTimer = map[addr.IP]*netsim.Timer{}
	r.nbrs.Reset()
	r.sptCount = map[mfib.Key]*sptCounter{}
	r.rpReportSeqs = map[addr.IP]uint32{}
	r.learnedRP = map[addr.IP]learnedMapping{}
}

// Restart brings a stopped router back with no memory of its previous
// incarnation beyond static configuration: handlers re-register and state
// is rebuilt purely from periodic soft-state refresh (§2, §3.8).
func (r *Router) Restart() {
	r.Stop()
	r.Start()
}

// SetRPMapping installs or replaces this router's ordered RP candidate list
// for a group (configuration path of §3, or host RPMap messages via
// LearnRPMap). It shadows Cfg.RPMapping on this router only, until Stop.
func (r *Router) SetRPMapping(g addr.IP, rps []addr.IP) {
	r.rpMap[g] = append([]addr.IP(nil), rps...)
}

// LearnRPMap merges a host-provided mapping (§3.1 fn. 9): unknown groups
// adopt the list; known groups keep their configuration.
func (r *Router) LearnRPMap(g addr.IP, rps []addr.IP) {
	if len(rps) == 0 {
		return
	}
	if _, ok := r.rps(g); !ok {
		r.SetRPMapping(g, rps)
	}
}

// rps returns the group's RP candidates: this router's run-time entry when it
// has one, else the configured one. ok reports whether either names the group
// (an entry with an empty list counts).
func (r *Router) rps(g addr.IP) (rps []addr.IP, ok bool) {
	if rps, ok = r.rpMap[g]; ok {
		return rps, true
	}
	rps, ok = r.Cfg.RPMapping[g]
	return rps, ok
}

// RPsFor returns the RP candidates for a group; an empty result means the
// group is not PIM sparse-mode supported (§3.1: "the router will assume
// that the group is not to be supported with PIM sparse mode"). Cached
// RP-report mappings count when no configured candidates exist. The result
// is clipped: the configured lists are shared by every router, so an append
// to it must copy rather than write into theirs.
func (r *Router) RPsFor(g addr.IP) []addr.IP {
	if rps, _ := r.rps(g); len(rps) > 0 {
		return slices.Clip(rps)
	}
	if lm, ok := r.learnedRP[g]; ok && r.Now() <= lm.expires {
		return []addr.IP{lm.rp}
	}
	return nil
}

// rpFor returns the RP this router's receiver side currently uses for g:
// a configured/host-learned candidate first, then a cached RP-report
// mapping (§4).
func (r *Router) rpFor(g addr.IP) (addr.IP, bool) {
	if rp, ok := r.currentRP[g]; ok {
		return rp, true
	}
	rps, _ := r.rps(g)
	if len(rps) == 0 {
		if lm, ok := r.learnedRP[g]; ok && r.Now() <= lm.expires {
			r.currentRP[g] = lm.rp
			return lm.rp, true
		}
		return 0, false
	}
	r.currentRP[g] = rps[0]
	return rps[0], true
}

// IsRPFor reports whether this router owns an RP address for the group.
func (r *Router) IsRPFor(g addr.IP) bool {
	rps, _ := r.rps(g)
	for _, rp := range rps {
		if r.Node.OwnsAddr(rp) {
			return true
		}
	}
	return false
}

// sourceKey normalizes a source address to the granularity the router
// keeps (S,G) state at: the host address, or the /24 subnet when §4 source
// aggregation is enabled.
func (r *Router) sourceKey(s addr.IP) addr.IP {
	if r.Cfg.AggregateSources {
		return s & addr.Mask(24)
	}
	return s
}

// rpf resolves the RPF interface and upstream neighbor toward a target
// (source or RP). ok is false when no route exists. A zero upstream with
// ok=true means the target is directly connected (or is this node).
func (r *Router) rpf(target addr.IP) (iif *netsim.Iface, upstream addr.IP, ok bool) {
	if r.Node.OwnsAddr(target) {
		return nil, 0, true
	}
	rt, ok := r.RPF.Lookup(target)
	if !ok {
		return nil, 0, false
	}
	up := rt.NextHop
	if up == 0 {
		// Directly connected subnet. If the target itself is a PIM
		// neighbor (an RP sharing our LAN), address it; if it is a host
		// (a directly-connected source), there is no upstream router.
		if r.isNeighbor(rt.Iface, target) {
			up = target
		}
	}
	return rt.Iface, up, true
}

// --- Neighbor discovery and DR election (§3.7) ---

func (r *Router) sendQueries() {
	q := pimmsg.Query{HoldTime: uint16(3*r.Cfg.QueryInterval/netsim.Second + 15)}
	r.Enc.Buf = pimmsg.AppendEnvelope(r.Enc.Buf[:0], pimmsg.TypeQuery)
	r.Enc.Buf = q.MarshalTo(r.Enc.Buf)
	for _, ifc := range r.Node.Ifaces {
		if !ifc.Up() || ifc.Addr == 0 {
			continue
		}
		r.Node.Send(ifc, r.Enc.Packet(ifc.Addr, addr.AllRouters, packet.ProtoPIM, 1), 0)
		r.Metrics.Inc(metrics.CtrlQuery)
	}
}

func (r *Router) handleQuery(in *netsim.Iface, src addr.IP, body []byte) {
	var q pimmsg.Query
	if err := pimmsg.UnmarshalQueryInto(&q, body); err != nil {
		return
	}
	now := r.Now()
	if known, _ := r.nbrs.Heard(in.Index, src, now, now+netsim.Time(q.HoldTime)*netsim.Second); !known {
		r.Pub(telemetry.NeighborUp, in.Index, src, 0, 0)
	}
}

func (r *Router) expireNeighbors() {
	r.nbrs.Expire(r.Now(), func(iface int, a addr.IP) {
		r.Pub(telemetry.NeighborDown, iface, a, 0, 0)
	})
}

func (r *Router) isNeighbor(ifc *netsim.Iface, a addr.IP) bool {
	return r.nbrs.Alive(ifc.Index, a, r.Now())
}

// IsDR reports whether this router is the designated router on the
// interface: the highest address among itself and its live PIM neighbors
// ("the designated router is the one that takes responsibility for serving
// the members on the LAN").
func (r *Router) IsDR(ifc *netsim.Iface) bool {
	return !r.nbrs.Live(ifc.Index, r.Now(), ifc.Addr)
}

// Neighbors returns the live PIM neighbors on an interface, sorted: the
// table walks each interface in address order.
func (r *Router) Neighbors(ifc *netsim.Iface) []addr.IP {
	var out []addr.IP
	r.nbrs.Each(r.Now(), func(iface int, a addr.IP) {
		if iface == ifc.Index {
			out = append(out, a)
		}
	})
	return out
}

// --- PIM message dispatch ---

func (r *Router) handlePIM(in *netsim.Iface, pkt *packet.Packet) {
	// Unicast PIM packets (registers) not addressed to us are forwarded
	// toward their destination like any unicast datagram.
	if !pkt.Dst.IsMulticast() && !r.Node.OwnsAddr(pkt.Dst) {
		r.forwardUnicast(pkt)
		return
	}
	typ, body, err := pimmsg.Open(pkt.Payload)
	if err != nil {
		return
	}
	switch typ {
	case pimmsg.TypeQuery:
		r.handleQuery(in, pkt.Src, body)
	case pimmsg.TypeJoinPrune:
		r.handleJoinPrune(in, body)
	case pimmsg.TypeRegister:
		r.handleRegister(in, pkt, body)
	case pimmsg.TypeRPReach:
		r.handleRPReach(in, body)
	case pimmsg.TypeRPReport:
		r.handleRPReport(in, body)
	}
}

// forwardUnicast relays a unicast packet one hop along the unicast route.
func (r *Router) forwardUnicast(pkt *packet.Packet) {
	rt, ok := r.RPF.Lookup(pkt.Dst)
	if !ok {
		return
	}
	fwd, ok := pkt.Forwarded()
	if !ok {
		return
	}
	nextHop := rt.NextHop
	if nextHop == 0 {
		nextHop = pkt.Dst
	}
	r.Node.Send(rt.Iface, fwd, nextHop)
}

// StateCount returns the number of multicast forwarding entries — the
// "state" axis of the paper's overhead comparison.
func (r *Router) StateCount() int { return r.MFIB.Len() }

// NeighborCount returns the number of live PIM neighbor entries across all
// interfaces — the recovery tests' stale-neighbor probe: after a peer's
// crash and hold-time expiry it must drop, and after the peer's restart it
// must return to the interface's true degree.
func (r *Router) NeighborCount() int { return r.nbrs.Count(r.Now()) }

// HandlePIMPacket is the exported PIM control entry point, used by border
// routers (internal/border) that multiplex sparse- and dense-mode protocol
// instances over one node's interfaces.
func (r *Router) HandlePIMPacket(in *netsim.Iface, pkt *packet.Packet) { r.handlePIM(in, pkt) }

// HandleDataPacket is the exported data-plane entry point (see
// HandlePIMPacket).
func (r *Router) HandleDataPacket(in *netsim.Iface, pkt *packet.Packet) { r.handleData(in, pkt) }

// HandleBorderData processes a multicast data packet that entered from a
// dense-mode region at a border router (§4 interoperation): the border acts
// as the region's designated router, registering the region-internal source
// toward the RP(s) and forwarding over any sparse-mode state whose incoming
// interface faces the region.
func (r *Router) HandleBorderData(in *netsim.Iface, pkt *packet.Packet) {
	g := pkt.Dst
	if !g.IsMulticast() || g.IsLinkLocalMulticast() {
		return
	}
	if r.IsDR(in) {
		r.senderSide(in, pkt.Src, g, pkt)
	}
	r.forwardData(in, pkt)
}
