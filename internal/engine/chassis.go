// Package engine holds what every protocol engine in this repository does the
// same way: the soft-state lifecycle of §2/§3.8 (state that is refreshed,
// times out, and is rebuilt from nothing after a failure), neighbor liveness,
// local membership, and — for the two dense protocols — the truncated
// RPF-broadcast machine itself (flood.go).
//
// The five multicast engines and the IGMP querier embed a Chassis; what stays
// in each engine package is the protocol: its messages, its timers' bodies,
// and its forwarding rules.
package engine

import (
	"pim/internal/addr"
	"pim/internal/metrics"
	"pim/internal/mfib"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/rpf"
	"pim/internal/telemetry"
	"pim/internal/unicast"
)

// Forever keeps a default-on outgoing interface alive until it is explicitly
// pruned.
const Forever = netsim.Time(1) << 60

// Chassis is the per-instance scaffolding of one protocol engine on one node.
type Chassis struct {
	Node *netsim.Node
	// Unicast is the routing view the engine consumes (nil for engines that
	// carry their own topology, and for the IGMP querier).
	Unicast unicast.Router
	Metrics *metrics.Counters
	// Telemetry, when non-nil, receives a structured event for every state
	// transition; nil keeps every Pub site a single untaken branch.
	Telemetry *telemetry.Bus
	// RPF memoizes reverse-path lookups over Unicast, invalidated by table
	// generation and dropped at Stop.
	RPF *rpf.Cache
	// Enc is the reusable control-message encode workspace: a send site
	// appends into Enc.Buf and transmits Enc.Packet, so warm periodic sends
	// allocate nothing. Safe because Node.Send copies the payload into its
	// transmit frame before returning.
	Enc packet.Scratch
	// Fanout is the reusable outgoing-interface scratch: a forwarding site
	// appends the packet's fan-out into Fanout[:0] (mfib.AppendShared and
	// friends) and walks it, so a warm forward allocates no list. Safe
	// because nothing in a walk re-enters a forward on this chassis:
	// Node.Send only enqueues the frame, and telemetry subscribers only read.
	// A border router hands one packet to two instances, and each has its
	// own chassis.
	Fanout []*netsim.Iface

	handlers []handler
	started  bool
	// epoch invalidates scheduled closures across Stop/Restart: After wraps
	// every timer body to run only if the epoch it was armed under is still
	// current, so a crashed incarnation's callbacks become inert instead of
	// mutating the fresh state of the next one.
	epoch uint64
}

type handler struct {
	proto byte
	fn    netsim.HandlerFunc
}

// NewChassis binds the scaffolding to a node. uni may be nil.
func NewChassis(nd *netsim.Node, uni unicast.Router, tel *telemetry.Bus) Chassis {
	c := Chassis{Node: nd, Unicast: uni, Metrics: metrics.New(), Telemetry: tel}
	if uni != nil {
		c.RPF = rpf.New(uni)
	}
	return c
}

// Handle declares a packet handler the engine owns: registered with the node
// for the span of each life, cleared at Stop. Call before Start.
func (c *Chassis) Handle(proto byte, fn netsim.HandlerFunc) {
	c.handlers = append(c.handlers, handler{proto, fn})
}

// Start begins a life: it publishes EpochStart carrying state — the engine's
// soft-state size, which must be 0 on every life after the first (the
// soft-state-only restart contract) — registers the handlers, and runs boot,
// which arms the engine's periodic timers. Starting a started engine is a
// no-op.
func (c *Chassis) Start(state int, boot func()) {
	if c.started {
		return
	}
	c.started = true
	c.Pub(telemetry.EpochStart, -1, 0, 0, int64(state))
	for _, h := range c.handlers {
		c.Node.Handle(h.proto, h.fn)
	}
	boot()
}

// Stop ends the current life: it publishes EpochEnd carrying value, bumps the
// epoch (every timer armed so far is now inert), detaches the handlers, drops
// the RPF cache, and runs reset, which must discard all of the engine's soft
// state. Stopping a stopped engine is a no-op.
func (c *Chassis) Stop(value int, reset func()) {
	if !c.started {
		return
	}
	c.started = false
	c.Pub(telemetry.EpochEnd, -1, 0, 0, int64(value))
	c.epoch++
	for _, h := range c.handlers {
		c.Node.Handle(h.proto, nil)
	}
	if c.Unicast != nil {
		c.RPF = rpf.New(c.Unicast)
	}
	reset()
}

// Started reports whether the engine is between Start and Stop.
func (c *Chassis) Started() bool { return c.started }

// Counters returns the engine's counter bag (the Metrics field), for callers
// that hold the engine behind an interface.
func (c *Chassis) Counters() *metrics.Counters { return c.Metrics }

// NewMFIB returns an empty forwarding table whose entries live in the
// simulation's one arena (mfib.Arena, DESIGN.md §16). An engine takes one
// table for its lifetime and empties it with Table.Clear.
func (c *Chassis) NewMFIB() *mfib.Table {
	return mfib.NewTable(netsim.Scratch[mfib.Arena](c.Node.Net))
}

// Now is the node's simulated clock.
func (c *Chassis) Now() netsim.Time { return c.Node.Sched().Now() }

// After schedules fn under the current epoch: if the engine is stopped or
// restarted before the timer fires, the closure is a no-op. TimerFire is
// published past the guard, so the event records a timer body that actually
// ran, carrying the epoch it was armed under — the invariant checker asserts
// from it that no dead incarnation ever acts.
func (c *Chassis) After(d netsim.Time, fn func()) *netsim.Timer {
	ep := c.epoch
	return c.Node.Sched().After(d, func() {
		if c.epoch == ep {
			c.Pub(telemetry.TimerFire, -1, 0, 0, 0)
			fn()
		}
	})
}

// Every runs fn after first and then each period, until the epoch ends.
func (c *Chassis) Every(first, period netsim.Time, fn func()) {
	var tick func()
	tick = func() {
		fn()
		c.After(period, tick)
	}
	c.After(first, tick)
}

// Forward is the one data emission step under every engine's fan-out loop:
// transmit fwd — the packet's Forwarded copy, shared by the whole fan-out —
// out one interface toward hop (0 for every station on the link), then count
// it, then publish it. s is the source the engine keys its state by; value is
// the DataForward event's (1 off a (*,G) list, else 0).
func (c *Chassis) Forward(out *netsim.Iface, fwd *packet.Packet, hop, s addr.IP, value int64) {
	c.Node.Send(out, fwd, hop)
	c.Metrics.Inc(metrics.DataForwarded)
	c.Pub(telemetry.DataForward, out.Index, s, fwd.Dst, value)
}

// Pub publishes one event stamped with the clock, the node and the current
// epoch. iface is -1 when the event concerns no interface.
func (c *Chassis) Pub(kind telemetry.Kind, iface int, s, g addr.IP, value int64) {
	if c.Telemetry != nil {
		c.publish(kind, iface, s, g, value)
	}
}

// publish is Pub's out-of-line half, so the disabled path inlines to one
// branch at the call site.
func (c *Chassis) publish(kind telemetry.Kind, iface int, s, g addr.IP, value int64) {
	c.Telemetry.Publish(telemetry.Event{
		At: c.Now(), Kind: kind, Router: c.Node.ID, Iface: iface,
		Epoch: c.epoch, Source: s, Group: g, Value: value,
	})
}
