// Package faults is the fault-injection layer over the netsim substrate: it
// composes deterministic, seedable fault models — per-link Bernoulli and
// burst (Gilbert two-state) loss, bounded message reordering, scheduled
// link flapping, network partition/heal, and fail-stop router crash/restart
// — onto a running simulation.
//
// The paper's robustness claim (§2, §3.8) is that PIM keeps only
// timer-refreshed soft state and therefore survives lost control messages,
// link failures, and router restarts without any reliability machinery. The
// recovery experiment (internal/experiments/recovery.go) and the scenario
// verbs (internal/script: loss/flap/crash/restart/partition/heal) drive the
// protocols through exactly those faults using this package.
//
// Determinism: the Injector owns one rand stream per directed interface
// pair, seeded from the construction seed and the pair's stable identity
// (link ID plus both endpoints' positions on the link). Loss decisions for
// a pair are consumed in that pair's delivery order, which the scheduler
// makes deterministic, and distinct pairs never share a stream — so a run
// with a given seed is bit-reproducible, and a pair's loss pattern is a
// function of its own deliveries alone: traffic added or removed on other
// links (a different workload, an extra host) leaves it untouched, where a
// single shared stream would shift with the global interleaving.
//
// Pair streams are created when a model is installed, never lazily during
// delivery; an interface that joins a link afterwards needs the model
// re-installed.
package faults

import (
	"math/rand"

	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/parallel"
)

// Class selects which packets a loss model applies to, using the control /
// data split of the paper's overhead ledger (netsim.IsData).
type Class int

// Loss classes.
const (
	All Class = iota
	ControlOnly
	DataOnly
)

func (c Class) matches(proto byte) bool {
	switch c {
	case ControlOnly:
		return !netsim.IsData(proto)
	case DataOnly:
		return netsim.IsData(proto)
	default:
		return true
	}
}

// GilbertParams parameterizes the two-state burst-loss model: the channel
// alternates between a good and a bad state with the given per-packet
// transition probabilities, dropping packets at LossGood / LossBad in the
// respective states. Classic bursty links have small PGoodBad, larger
// PBadGood, LossGood ~ 0, LossBad near 1.
type GilbertParams struct {
	PGoodBad float64 // P(good -> bad) evaluated per consulted packet
	PBadGood float64 // P(bad -> good)
	LossGood float64 // drop probability in the good state
	LossBad  float64 // drop probability in the bad state
}

// lossModel is one installed loss process (per link or global). The model
// itself is immutable once installed; mutable channel state (the rand
// stream, the Gilbert good/bad bit) lives per directed pair in pairState.
type lossModel struct {
	class Class
	// bernoulli rate when gilbert is nil.
	rate    float64
	gilbert *GilbertParams
}

func (m *lossModel) drop(ps *pairState, bad *bool, proto byte) bool {
	if !m.class.matches(proto) {
		return false
	}
	if m.gilbert == nil {
		return m.rate > 0 && ps.rng.Float64() < m.rate
	}
	// Advance the channel, then sample the state's loss rate.
	if *bad {
		if ps.rng.Float64() < m.gilbert.PBadGood {
			*bad = false
		}
	} else if ps.rng.Float64() < m.gilbert.PGoodBad {
		*bad = true
	}
	p := m.gilbert.LossGood
	if *bad {
		p = m.gilbert.LossBad
	}
	return p > 0 && ps.rng.Float64() < p
}

// pairKey identifies one direction of one link.
type pairKey struct{ from, to *netsim.Iface }

// pairState is the mutable loss state of one directed pair: its private
// rand stream plus the Gilbert channel bits for the link-scoped and
// global-scoped models.
type pairState struct {
	rng       *rand.Rand
	linkBad   bool
	globalBad bool
}

// Lifecycle is the crash/restart surface of a protocol engine (implemented
// by the five multicast engines and the IGMP querier). Stop detaches the
// instance and discards all of its soft state; Restart brings it back empty,
// to be rebuilt purely from periodic refresh.
type Lifecycle interface {
	Stop()
	Restart()
}

// Injector owns the fault state of one simulation. Construct with New; all
// mutators may be called at any simulated time (typically from scheduled
// events).
type Injector struct {
	Net  *netsim.Network
	seed int64

	// prev chains a pre-existing Network.Loss hook: the injector composes
	// onto it rather than replacing it; prevJitter does the same for the
	// Network.Jitter hook (contributions are summed).
	prev       func(from, to *netsim.Iface, pkt *packet.Packet) bool
	prevJitter func(from *netsim.Iface, pkt *packet.Packet) netsim.Time

	perLink map[*netsim.Link]*lossModel
	global  *lossModel
	// pairs holds each directed pair's private rand stream and channel
	// state, created eagerly at model-install time (delivery only reads).
	pairs map[pairKey]*pairState

	// reorderLink / reorderGlobal are the installed reorder models;
	// reorderStreams holds one private rand stream per transmitting
	// interface, created eagerly at install time like the loss pair streams.
	reorderLink    map[*netsim.Link]*reorderModel
	reorderGlobal  *reorderModel
	reorderStreams map[*netsim.Iface]*rand.Rand

	// partitioned remembers the links Partition took down, so Heal can
	// restore exactly that set.
	partitioned []*netsim.Link
}

// New installs a fault injector on the network, composing with any loss hook
// already present (the previous hook is consulted first).
func New(net *netsim.Network, seed int64) *Injector {
	in := &Injector{
		Net:            net,
		seed:           seed,
		prev:           net.Loss,
		prevJitter:     net.Jitter,
		perLink:        map[*netsim.Link]*lossModel{},
		pairs:          map[pairKey]*pairState{},
		reorderLink:    map[*netsim.Link]*reorderModel{},
		reorderStreams: map[*netsim.Iface]*rand.Rand{},
	}
	net.Loss = in.loss
	net.Jitter = in.jitter
	return in
}

// ensurePairs creates the pair streams for every direction of l. The seed
// derives from the link's ID and both endpoints' positions on it — stable
// identities that don't depend on install order or memory layout.
func (in *Injector) ensurePairs(l *netsim.Link) {
	for i, from := range l.Ifaces {
		for j, to := range l.Ifaces {
			if i == j {
				continue
			}
			k := pairKey{from, to}
			if in.pairs[k] == nil {
				seed := parallel.DeriveSeed(in.seed, int64(l.ID), int64(i), int64(j))
				in.pairs[k] = &pairState{rng: rand.New(rand.NewSource(seed))}
			}
		}
	}
}

func (in *Injector) ensureAllPairs() {
	for _, l := range in.Net.Links {
		in.ensurePairs(l)
	}
}

func (in *Injector) loss(from, to *netsim.Iface, pkt *packet.Packet) bool {
	if in.prev != nil && in.prev(from, to, pkt) {
		return true
	}
	lm, gm := in.perLink[from.Link], in.global
	if lm == nil && gm == nil {
		return false
	}
	ps := in.pairs[pairKey{from, to}]
	if ps == nil {
		// An interface joined the link after its model was installed;
		// re-install the model to pick it up.
		panic("faults: delivery on a pair with no installed stream")
	}
	if lm != nil && lm.drop(ps, &ps.linkBad, pkt.Protocol) {
		return true
	}
	if gm != nil && gm.drop(ps, &ps.globalBad, pkt.Protocol) {
		return true
	}
	return false
}

// SetBernoulli installs independent per-packet loss at the given rate on one
// link (or on every link when l is nil), replacing any model already on that
// scope. Rate 0 removes the model.
func (in *Injector) SetBernoulli(l *netsim.Link, rate float64, class Class) {
	m := &lossModel{class: class, rate: rate}
	if rate <= 0 {
		m = nil
	}
	if l == nil {
		in.global = m
		if m != nil {
			in.ensureAllPairs()
		}
		return
	}
	if m == nil {
		delete(in.perLink, l)
		return
	}
	in.perLink[l] = m
	in.ensurePairs(l)
}

// SetGilbert installs the two-state burst-loss model on one link (or every
// link when l is nil), replacing any model already on that scope.
func (in *Injector) SetGilbert(l *netsim.Link, p GilbertParams, class Class) {
	m := &lossModel{class: class, gilbert: &p}
	if l == nil {
		in.global = m
		in.ensureAllPairs()
		return
	}
	in.perLink[l] = m
	in.ensurePairs(l)
}

// ClearLoss removes every installed loss model. Scheduled flaps, reorder
// models, and an active partition are unaffected.
func (in *Injector) ClearLoss() {
	in.global = nil
	in.perLink = map[*netsim.Link]*lossModel{}
}

// reorderModel is one installed message-reorder process: matching frames
// sent onto the scope's link(s) get uniform extra propagation delay in
// [0, window], so back-to-back transmissions from one station can overtake
// each other — the classic LAN reordering that soft-state protocols must
// tolerate (a prune heard after the join that was sent to override it, a
// graft overtaken by the retransmission timer's copy, ...).
type reorderModel struct {
	class  Class
	window netsim.Time
}

// reorderSalt separates the reorder streams' seed space from the loss pair
// streams' (which derive from the same injector seed).
const reorderSalt = 0x5eed4e02

// ensureReorderStreams creates the per-transmitting-interface rand streams
// for l. Seeds derive from the link ID and the interface's position on the
// link — stable identities independent of install order and memory layout,
// exactly like the loss pair streams. Per-iface streams make the jitter
// sequence a function of that iface's send order alone, which the
// scheduler's canonical event order fixes.
func (in *Injector) ensureReorderStreams(l *netsim.Link) {
	for i, from := range l.Ifaces {
		if in.reorderStreams[from] == nil {
			seed := parallel.DeriveSeed(in.seed, reorderSalt, int64(l.ID), int64(i))
			in.reorderStreams[from] = rand.New(rand.NewSource(seed))
		}
	}
}

// jitter is the Network.Jitter hook: one draw per matching transmission from
// the sender's private stream.
func (in *Injector) jitter(from *netsim.Iface, pkt *packet.Packet) netsim.Time {
	var j netsim.Time
	if in.prevJitter != nil {
		j = in.prevJitter(from, pkt)
	}
	lm, gm := in.reorderLink[from.Link], in.reorderGlobal
	if lm == nil && gm == nil {
		return j
	}
	rng := in.reorderStreams[from]
	if rng == nil {
		// An interface joined the link after the model was installed;
		// re-install the model to pick it up.
		panic("faults: transmission on an iface with no reorder stream")
	}
	if lm != nil && lm.class.matches(pkt.Protocol) {
		j += netsim.Time(rng.Int63n(int64(lm.window) + 1))
	}
	if gm != nil && gm.class.matches(pkt.Protocol) {
		j += netsim.Time(rng.Int63n(int64(gm.window) + 1))
	}
	return j
}

// SetReorder installs bounded message reordering on one link (or on every
// link when l is nil), replacing any reorder model already on that scope:
// each matching frame is delayed by a seeded uniform draw from [0, window]
// on top of the link's propagation delay. Window 0 removes the model.
// Like the loss installers, SetReorder must run in a serial phase (setup
// code or a root-scheduler action).
func (in *Injector) SetReorder(l *netsim.Link, window netsim.Time, class Class) {
	m := &reorderModel{class: class, window: window}
	if window <= 0 {
		m = nil
	}
	if l == nil {
		in.reorderGlobal = m
		if m != nil {
			for _, link := range in.Net.Links {
				in.ensureReorderStreams(link)
			}
		}
		return
	}
	if m == nil {
		delete(in.reorderLink, l)
		return
	}
	in.reorderLink[l] = m
	in.ensureReorderStreams(l)
}

// ClearReorder removes every installed reorder model.
func (in *Injector) ClearReorder() {
	in.reorderGlobal = nil
	in.reorderLink = map[*netsim.Link]*reorderModel{}
}

// Flap schedules cycles of link down/up starting at `first` from now: the
// link goes down for downFor, comes back up for upFor, repeated `cycles`
// times (ending up). Cycles <= 0 schedules nothing.
func (in *Injector) Flap(l *netsim.Link, first, downFor, upFor netsim.Time, cycles int) {
	sched := in.Net.Sched
	at := first
	for c := 0; c < cycles; c++ {
		sched.After(at, func() { in.Net.SetLinkUp(l, false) })
		sched.After(at+downFor, func() { in.Net.SetLinkUp(l, true) })
		at += downFor + upFor
	}
}

// Partition takes the given cut set of links down at once, splitting the
// network; Heal restores them. A second Partition before Heal extends the
// remembered set.
func (in *Injector) Partition(links ...*netsim.Link) {
	for _, l := range links {
		if l.Up() {
			in.Net.SetLinkUp(l, false)
			in.partitioned = append(in.partitioned, l)
		}
	}
}

// Heal brings every partitioned link back up.
func (in *Injector) Heal() {
	for _, l := range in.partitioned {
		in.Net.SetLinkUp(l, true)
	}
	in.partitioned = nil
}

// CrashRouter fail-stops a router: every interface of the node goes down
// (neighbors see the loss through unicast routing, per §3.8) and every
// engine running on it is stopped, discarding all protocol soft state.
// Package-level because crashing needs no loss state — an Injector is not
// required to kill a router.
func CrashRouter(net *netsim.Network, nd *netsim.Node, engines ...Lifecycle) {
	for _, e := range engines {
		e.Stop()
	}
	for _, ifc := range nd.Ifaces {
		net.SetIfaceUp(ifc, false)
	}
}

// RestartRouter brings a crashed router back: interfaces come up and every
// engine restarts empty, rebuilding purely from soft-state refresh.
func RestartRouter(net *netsim.Network, nd *netsim.Node, engines ...Lifecycle) {
	for _, ifc := range nd.Ifaces {
		net.SetIfaceUp(ifc, true)
	}
	for _, e := range engines {
		e.Restart()
	}
}

// CrashRouter is the Injector convenience form of the package function.
func (in *Injector) CrashRouter(nd *netsim.Node, engines ...Lifecycle) {
	CrashRouter(in.Net, nd, engines...)
}

// RestartRouter is the Injector convenience form of the package function.
func (in *Injector) RestartRouter(nd *netsim.Node, engines ...Lifecycle) {
	RestartRouter(in.Net, nd, engines...)
}
