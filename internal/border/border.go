// Package border implements the paper's §4 dense/sparse interoperation
// mechanism: a border router that splices a dense-mode region onto a
// sparse-mode distribution tree.
//
// The paper identifies the core problem — "the first group member in a
// dense mode region needs to have some way of initially pulling down the
// data packets from (or through) an upstream sparse mode region" — and
// sketches the solution this package builds: "getting the group member
// existence information to the border routers, and having border routers
// send explicit joins."
//
// Concretely, a BorderRouter runs both protocol instances on one node:
//
//   - a PIM sparse-mode router (internal/core) owning the sparse-side
//     interfaces, and
//   - a PIM dense-mode router (internal/pimdm) scoped to the dense-region
//     interfaces.
//
// The border's dense instance is the region's consumer of member existence
// (pimdm.NewConsumer): it floods a solicitation every query interval, and
// while one is live the region's routers that have members flood their group
// lists back (pimmsg MemberAd, region-scoped; a region with no border sends
// none). When the region first gains a member of a
// group, the border router joins the group's sparse-mode shared tree with
// the region-facing interface as a local branch; data then flows down the
// sparse tree, across the border, and is distributed inside the region by
// flood-and-prune. When the last member disappears, the border prunes
// itself off the sparse tree. Sources inside the dense region are handled
// by the border acting as their designated router: it registers them toward
// the RP(s), and the RP's joins terminate at the border (§4's second issue,
// "which border router should be the entry point for data packets from a
// particular source" — here, the one on the unicast route).
package border

import (
	"cmp"
	"slices"

	"pim/internal/addr"
	"pim/internal/core"
	"pim/internal/metrics"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/pimdm"
	"pim/internal/unicast"
)

// BorderRouter couples a sparse-mode and a dense-mode protocol instance on
// one node, splitting the node's interfaces between them.
type BorderRouter struct {
	Node   *netsim.Node
	Sparse *core.Router
	Dense  *pimdm.Router

	// denseIfaces are the region-facing interfaces in index order — the order
	// the §4 splice joins and leaves them in; dense answers the per-packet
	// "which side" question by interface index.
	denseIfaces []*netsim.Iface
	dense       map[int]bool
}

// New builds a border router. denseIfaces lists the node's interfaces that
// face the dense-mode region; every other interface is sparse-side.
func New(nd *netsim.Node, sparseCfg core.Config, denseCfg pimdm.Config,
	uni unicast.Router, denseIfaces []*netsim.Iface) *BorderRouter {
	b := &BorderRouter{Node: nd, denseIfaces: slices.Clone(denseIfaces), dense: map[int]bool{}}
	slices.SortFunc(b.denseIfaces, func(x, y *netsim.Iface) int { return cmp.Compare(x.Index, y.Index) })
	b.denseIfaces = slices.Compact(b.denseIfaces)
	for _, ifc := range b.denseIfaces {
		b.dense[ifc.Index] = true
	}
	denseCfg.Scope = func(ifc *netsim.Iface) bool { return b.dense[ifc.Index] }
	b.Sparse = core.New(nd, sparseCfg, uni)
	b.Dense = pimdm.NewConsumer(nd, denseCfg, uni, b.regionMembershipChanged)
	// Keep the region exporting source traffic for sparse-supported groups:
	// without this the dense instance, having no region-internal receivers,
	// would prune the border off every source's flood (§4: data from region
	// sources must keep reaching the RPs).
	b.Dense.ExternalInterest = func(s, g addr.IP) bool {
		return len(b.Sparse.RPsFor(g)) > 0
	}
	return b
}

// Start launches both protocol instances, then installs the multiplexing
// packet handlers that split traffic between them by arrival interface.
func (b *BorderRouter) Start() {
	b.Sparse.Start()
	b.Dense.Start()
	// Override the handlers both instances registered with the mux.
	b.Node.Handle(packet.ProtoPIM, netsim.HandlerFunc(b.handlePIM))
	b.Node.Handle(packet.ProtoUDP, netsim.HandlerFunc(b.handleData))
	// Registers (ProtoPIMData) are always sparse-side business; core's
	// registration of that handler stands.
}

// Stop takes both instances down together: each ends its epoch (so neither
// runs a timer armed before), detaches its handlers, the mux's included, and
// discards its soft state.
func (b *BorderRouter) Stop() {
	b.Sparse.Stop()
	b.Dense.Stop()
}

// Restart brings both instances back empty and re-installs the mux over the
// handlers their Start registered.
func (b *BorderRouter) Restart() {
	b.Stop()
	b.Start()
}

// Counters returns both instances' counters summed into one fresh bag.
func (b *BorderRouter) Counters() *metrics.Counters {
	c := metrics.New()
	c.Merge(b.Sparse.Metrics)
	c.Merge(b.Dense.Metrics)
	return c
}

// IsDenseIface reports whether the interface faces the dense region.
func (b *BorderRouter) IsDenseIface(ifc *netsim.Iface) bool { return b.dense[ifc.Index] }

func (b *BorderRouter) handlePIM(in *netsim.Iface, pkt *packet.Packet) {
	if b.dense[in.Index] {
		b.Dense.HandlePIMPacket(in, pkt)
		return
	}
	b.Sparse.HandlePIMPacket(in, pkt)
}

func (b *BorderRouter) handleData(in *netsim.Iface, pkt *packet.Packet) {
	if b.dense[in.Index] {
		// Intra-region distribution by flood-and-prune…
		b.Dense.HandleDataPacket(in, pkt)
		// …and across the border: register region-internal sources toward
		// the RP(s) and serve any sparse-mode state anchored on this
		// interface.
		b.Sparse.HandleBorderData(in, pkt)
		return
	}
	b.Sparse.HandleDataPacket(in, pkt)
}

// LocalJoin routes a local IGMP membership report to the owning instance.
func (b *BorderRouter) LocalJoin(ifc *netsim.Iface, g addr.IP) {
	if b.dense[ifc.Index] {
		b.Dense.LocalJoin(ifc, g)
		return
	}
	b.Sparse.LocalJoin(ifc, g)
}

// LocalLeave routes a local IGMP leave to the owning instance.
func (b *BorderRouter) LocalLeave(ifc *netsim.Iface, g addr.IP) {
	if b.dense[ifc.Index] {
		b.Dense.LocalLeave(ifc, g)
		return
	}
	b.Sparse.LocalLeave(ifc, g)
}

// regionMembershipChanged is the §4 splice: member existence inside the
// dense region translates into explicit sparse-mode joins (and leaves) by
// the border router, with the region-facing interfaces acting as local
// member branches of the shared tree.
func (b *BorderRouter) regionMembershipChanged(g addr.IP, present bool) {
	for _, ifc := range b.denseIfaces {
		if present {
			b.Sparse.LocalJoin(ifc, g)
		} else {
			b.Sparse.LocalLeave(ifc, g)
		}
	}
}

// StateCount sums both instances' forwarding entries.
func (b *BorderRouter) StateCount() int {
	return b.Sparse.StateCount() + b.Dense.StateCount()
}
