package igmp

import (
	"slices"

	"pim/internal/addr"
	"pim/internal/engine"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/telemetry"
)

// Default protocol timing (scaled paper/RFC values).
const (
	DefaultQueryInterval      = 60 * netsim.Second
	DefaultMembershipHoldTime = 150 * netsim.Second // 2.5 × query interval
)

// Querier is the router side of IGMP for one node: it queries every
// interface, tracks which groups have local members per interface, learns
// G→RP mappings from RPMap host messages, and notifies the multicast routing
// protocol of membership changes.
type Querier struct {
	// Chassis carries no unicast view. Its Telemetry bus, when non-nil,
	// receives MemberJoin/MemberLeave and lifecycle events; set it before
	// Start.
	engine.Chassis
	QueryInterval netsim.Time
	HoldTime      netsim.Time

	// OnJoin/OnLeave fire when the first member appears / last member
	// disappears for a group on an interface.
	OnJoin  func(ifc *netsim.Iface, group addr.IP)
	OnLeave func(ifc *netsim.Iface, group addr.IP)
	// OnRPMap fires when a host pushes a group→RP mapping.
	OnRPMap func(group addr.IP, rps []addr.IP)

	// members is liveness keyed by (interface, group address): host reports
	// renew it for HoldTime, the query tick expires it.
	members engine.Neighbors

	// dec is the decode scratch, valid only within one handle call; the
	// RPMap path copies the RPs slice out of it before handing it to
	// OnRPMap, which may retain it.
	dec Message
}

// NewQuerier attaches the router side of IGMP to a node.
func NewQuerier(nd *netsim.Node) *Querier {
	q := &Querier{
		Chassis:       engine.NewChassis(nd, nil, nil),
		QueryInterval: DefaultQueryInterval,
		HoldTime:      DefaultMembershipHoldTime,
	}
	q.Handle(packet.ProtoIGMP, q.handle)
	return q
}

// Start registers the IGMP handler and begins periodic querying.
func (q *Querier) Start() {
	q.Chassis.Start(q.members.Count(q.Now()), func() {
		q.Every(0, q.QueryInterval, func() {
			q.expire()
			q.query()
		})
	})
}

// Stop detaches the querier and forgets all learned membership. The OnLeave
// callback is deliberately not fired for the discarded groups: a crash takes
// the routing protocol down with it, and the restarted instance re-learns
// membership from host reports to its immediate re-query.
func (q *Querier) Stop() { q.Chassis.Stop(0, q.members.Reset) }

// Restart brings a stopped querier back empty; the immediate query triggers
// host re-reports that rebuild membership and re-fire OnJoin.
func (q *Querier) Restart() {
	q.Stop()
	q.Start()
}

func (q *Querier) query() {
	msg := Message{Type: TypeQuery}
	q.Enc.Buf = msg.MarshalTo(q.Enc.Buf[:0])
	for _, ifc := range q.Node.Ifaces {
		if !ifc.Up() || ifc.Addr == 0 {
			continue
		}
		q.Node.Send(ifc, q.Enc.Packet(ifc.Addr, addr.AllSystems, packet.ProtoIGMP, 1), 0)
	}
}

func (q *Querier) handle(in *netsim.Iface, pkt *packet.Packet) {
	m := &q.dec
	if err := UnmarshalInto(m, pkt.Payload); err != nil {
		return
	}
	switch m.Type {
	case TypeReport:
		if !m.Group.IsMulticast() || m.Group.IsLinkLocalMulticast() {
			return
		}
		q.noteMember(in, m.Group)
	case TypeLeave:
		// Fast leave: the real protocol sends group-specific queries; the
		// simulator trusts the leave and drops membership immediately when
		// no other member reported recently. A conservative implementation
		// would re-query; hosts here re-report on the next query anyway.
		q.dropMember(in, m.Group)
	case TypeRPMap:
		if q.OnRPMap != nil && m.Group.IsMulticast() {
			// The callback may retain the slice (protocols store the
			// mapping), so it gets a copy, not the decode scratch.
			q.OnRPMap(m.Group, append([]addr.IP(nil), m.RPs...))
		}
	}
}

func (q *Querier) noteMember(in *netsim.Iface, g addr.IP) {
	now := q.Now()
	if had, _ := q.members.Heard(in.Index, g, now, now+q.HoldTime); !had {
		q.Pub(telemetry.MemberJoin, in.Index, 0, g, 0)
		if q.OnJoin != nil {
			q.OnJoin(in, g)
		}
	}
}

func (q *Querier) dropMember(in *netsim.Iface, g addr.IP) {
	if q.members.Forget(in.Index, g) {
		q.Pub(telemetry.MemberLeave, in.Index, 0, g, 0)
		if q.OnLeave != nil {
			q.OnLeave(in, g)
		}
	}
}

func (q *Querier) expire() {
	q.members.Expire(q.Now(), func(idx int, g addr.IP) {
		q.Pub(telemetry.MemberLeave, idx, 0, g, 0)
		if q.OnLeave != nil && idx < len(q.Node.Ifaces) {
			q.OnLeave(q.Node.Ifaces[idx], g)
		}
	})
}

// HasMember reports whether the group has a live local member on the
// interface.
func (q *Querier) HasMember(ifc *netsim.Iface, g addr.IP) bool {
	return q.members.Alive(ifc.Index, g, q.Now())
}

// HasAnyMember reports whether the group has a member on any interface.
func (q *Querier) HasAnyMember(g addr.IP) bool {
	for _, ifc := range q.Node.Ifaces {
		if q.HasMember(ifc, g) {
			return true
		}
	}
	return false
}

// Groups returns the set of groups with live members on any interface,
// sorted.
func (q *Querier) Groups() []addr.IP {
	var out []addr.IP
	q.members.Each(q.Now(), func(_ int, g addr.IP) { out = append(out, g) })
	slices.Sort(out)
	return slices.Compact(out)
}
