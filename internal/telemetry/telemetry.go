// Package telemetry is the observability plane of the repository: a
// zero-cost-when-disabled event bus that every protocol engine (core, pimdm,
// dvmrp, cbt, mospf, igmp) publishes structured events to. The paper defines
// its protocols entirely by soft-state transitions (§3.8: timers, refreshes,
// implicit teardown); the bus makes those transitions observable as data —
// each event is stamped with the simulated time, the router, and the
// (S,G)/(*,G) key it concerns.
//
// Three consumers build on the raw stream:
//
//   - Sampler (sampler.go): per-router time-series counter curves (control
//     messages, state entries, deliveries, drops), dumped as JSON for
//     cmd/pimbench and plotting.
//   - ConvergenceProbe (probe.go): time-to-first-delivery and
//     tree-stabilization detection, the structured replacement for ad-hoc
//     recovery-time measurement.
//   - Checker (invariant.go): an online §3.8 invariant checker that trips
//     the moment a soft-state contract is violated mid-run.
//
// The zero-cost contract: engines hold a nil *Bus when no subscriber is
// attached and guard every publication with a single nil-check branch, with
// event construction inside the branch. A run without telemetry therefore
// pays one predictable-not-taken compare per would-be event and allocates
// nothing, keeping the data-plane benchmark ledgers valid.
package telemetry

import (
	"pim/internal/addr"
	"pim/internal/netsim"
)

// Kind enumerates the event taxonomy.
type Kind uint8

const (
	// EntryCreate: a multicast forwarding entry was installed. Source/Group
	// carry the key; Value is 1 for (*,G), 2 for (S,G)RPbit negative-cache
	// entries, 0 for plain (S,G).
	EntryCreate Kind = iota
	// EntryExpire: an entry was removed (swept, cancelled, or torn down).
	EntryExpire
	// IIFSet: an entry's incoming interface was resolved via RPF. Iface is
	// the installed iif (-1 when the target is local/unreachable); Source
	// carries the RPF target (the source, or the RP for (*,G)).
	IIFSet
	// JoinPruneSend / JoinPruneRecv: a join/prune message left / was
	// processed on Iface. Value counts the group records.
	JoinPruneSend
	JoinPruneRecv
	// GraftSend / PruneSend: dense-mode graft/prune control traffic.
	GraftSend
	PruneSend
	// RegisterSend: a sender-side register left toward an RP (Source=S).
	RegisterSend
	// SPTSwitch: shared-tree→SPT transition for (S,G). Value 0 = initiated
	// (join sent toward the source), 1 = completed (SPT bit set, §3.5
	// exception 2).
	SPTSwitch
	// RPFailover: the router abandoned an unreachable RP for the next
	// candidate (§3.9).
	RPFailover
	// LSAFlood: an MOSPF membership LSA was originated or relayed.
	LSAFlood
	// NeighborUp / NeighborDown: PIM-query neighbor liveness on Iface.
	NeighborUp
	NeighborDown
	// TimerFire: an epoch-guarded timer body executed. Epoch carries the
	// epoch the timer was armed under; the invariant checker trips if it is
	// not the router's current epoch.
	TimerFire
	// EpochStart / EpochEnd: engine lifecycle. Epoch is the new/old epoch;
	// on EpochStart, Value is the entry count visible at start (must be 0
	// for a restarted router — the soft-state-only restart contract).
	EpochStart
	EpochEnd
	// MemberJoin / MemberLeave: IGMP membership edges on Iface.
	MemberJoin
	MemberLeave
	// DataForward: a data packet was transmitted out Iface. Value is 1 when
	// forwarded off the shared (*,G) list (where negative-cache subtraction
	// applies), 0 otherwise.
	DataForward
	// RPFDrop: a data packet arrived on an interface that failed the
	// incoming-interface check.
	RPFDrop
	// NoState: a data packet matched no forwarding entry.
	NoState
	// Deliver: a host received a data packet. Router is the attached
	// router's index, Iface the host's index on that router's LAN, Value
	// the send timestamp in microseconds (-1 when unstamped).
	Deliver
	// MemberAdSend: a dense-mode member-existence message (§4 interop) left
	// on Iface, originated or relayed. Source is the origin, Value the number
	// of groups it lists (0 for a solicitation or a withdrawal).
	MemberAdSend

	kindCount // sentinel
)

var kindNames = [kindCount]string{
	EntryCreate:   "entry-create",
	EntryExpire:   "entry-expire",
	IIFSet:        "iif-set",
	JoinPruneSend: "joinprune-send",
	JoinPruneRecv: "joinprune-recv",
	GraftSend:     "graft-send",
	PruneSend:     "prune-send",
	RegisterSend:  "register-send",
	SPTSwitch:     "spt-switch",
	RPFailover:    "rp-failover",
	LSAFlood:      "lsa-flood",
	NeighborUp:    "neighbor-up",
	NeighborDown:  "neighbor-down",
	TimerFire:     "timer-fire",
	EpochStart:    "epoch-start",
	EpochEnd:      "epoch-end",
	MemberJoin:    "member-join",
	MemberLeave:   "member-leave",
	DataForward:   "data-forward",
	RPFDrop:       "rpf-drop",
	NoState:       "no-state",
	Deliver:       "deliver",
	MemberAdSend:  "memberad-send",
}

// String returns the stable kebab-case name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Entry-kind values carried by EntryCreate/EntryExpire events.
const (
	EntrySG  = 0 // (S,G) shortest-path entry
	EntryWC  = 1 // (*,G) wildcard entry
	EntryRpt = 2 // (S,G)RPbit negative-cache entry
)

// Event is one observation. It is a small value struct so publication with
// no allocation is possible; fields not meaningful for a kind are zero
// (Iface uses -1 for "not interface-scoped").
type Event struct {
	// At is the simulated time of the observation.
	At netsim.Time
	// Kind selects the taxonomy entry above.
	Kind Kind
	// Router is the publishing router's index (node ID); for Deliver events
	// it is the index of the router the host hangs off.
	Router int
	// Iface is the interface index the event concerns, or -1.
	Iface int
	// Epoch is the engine incarnation the event belongs to.
	Epoch uint64
	// Source, Group carry the (S,G)/(*,G) key (Source 0 for (*,G)).
	Source addr.IP
	Group  addr.IP
	// Value is kind-specific (see the Kind constants).
	Value int64
}

// Bus fans events out to subscribers in subscription order, synchronously.
// A nil *Bus held by an engine means telemetry is disabled; engines must
// guard Publish with `if bus != nil`.
type Bus struct {
	subs []func(Event)
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Subscribe registers a callback invoked for every subsequent event.
// Subscribers run synchronously inside Publish, in subscription order, so a
// subscriber observes the simulation state at the instant of the event.
func (b *Bus) Subscribe(fn func(Event)) { b.subs = append(b.subs, fn) }

// Publish delivers the event to every subscriber.
func (b *Bus) Publish(ev Event) {
	for _, fn := range b.subs {
		fn(ev)
	}
}

// Replay publishes a recorded stream in order. Observers subscribed to a
// fresh bus fold a captured run exactly as they would have folded it live.
func (b *Bus) Replay(events []Event) {
	for _, ev := range events {
		b.Publish(ev)
	}
}
