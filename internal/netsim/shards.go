package netsim

// Sharded parallel execution: the topology is partitioned into shards, each
// owning a disjoint set of nodes and a private Scheduler (its own timing
// wheel), and the shards execute concurrently under conservative lookahead.
//
// The synchronization protocol (DESIGN.md §12):
//
//   - Lookahead. Let L be the minimum delay over links whose endpoints live
//     on different shards. A packet sent at time t across a shard boundary
//     cannot arrive before t+L, so if every shard has executed everything
//     before a window boundary W, no shard can receive a foreign event
//     before W+L. The epoch loop therefore runs all shards in parallel over
//     the window [W, W+L), with no communication inside the window.
//   - Exchange. Cross-shard transmissions are buffered as timestamped
//     outbox records during the window and merged at the barrier, each
//     record carrying the packet bytes plus the ordering pedigree below.
//     Every arrival's deadline lies at or beyond the next window boundary,
//     so no shard ever receives an event in its past.
//   - Root actions. Globally scoped work — link flaps, router crashes,
//     loss-model installs, experiment snapshots — stays on the Network's
//     root scheduler. The epoch loop treats each pending root deadline as a
//     window boundary: shards quiesce, clocks align on the instant, the
//     actions run serially (before any shard-local event at that instant),
//     and their own transmissions join the next exchange.
//
// Determinism: shard count must be unobservable in results. Within a shard,
// events fire in event.before order — (deadline, birth instant, order key)
// — and every component of that key is computed from values that do not
// depend on shard count:
//
//   - Packet deliveries (the only events that ever cross a shard boundary)
//     carry the structural deliveryOrd key: (sending node ID, per-node
//     transmit sequence). A merged arrival therefore interleaves with local
//     deliveries at the same instant in exactly the order the sequential
//     path fires them, regardless of which shard flushed first.
//   - Timer/Post events carry scheduler-private sequence numbers. They
//     never cross shards, and the relative creation order of two events on
//     one shard is the same in a sequential run (the shard's events fire in
//     the same relative order, by induction), so private counters suffice.
//
// The sequential path (an unsharded Network) runs the identical ordering
// rule on a single scheduler, and the differential gates (scenario
// telemetry streams, the recovery matrix, the scaling grids) hold shards=N
// to its output.

import (
	"fmt"
	"sync"
	"time"

	"pim/internal/addr"
)

// ShardLoad is one shard's execution counters over a sharded run: events
// executed, wall-clock time spent idle at window barriers while a sibling
// shard was still running, and the number of lookahead stalls (windows the
// shard spent with nothing to execute while some other shard had work).
type ShardLoad struct {
	Shard     int   `json:"shard"`
	Events    int64 `json:"events"`
	BlockedNs int64 `json:"blocked_ns"`
	Stalls    int64 `json:"stalls"`
}

// xrec is one buffered cross-shard transmission: everything needed to
// deliver the frame on the destination shard. (src, xmit) is the structural
// order key that slots the arrival into the destination's event order.
type xrec struct {
	at      Time   // arrival deadline (send instant + link delay)
	bs      Time   // birth (send) instant
	src     int    // sending node ID
	xmit    uint64 // sending node's transmit sequence
	dst     int    // destination shard
	from    *Iface
	link    *Link
	frame   []byte
	nextHop addr.IP
}

// shardSet is the sharded execution engine owned by a Network's root
// scheduler.
type shardSet struct {
	net    *Network
	n      int
	scheds []*Scheduler
	// lookahead is the window length: the minimum cross-shard link delay,
	// recomputed at the start of every run (maxTime when nothing crosses).
	lookahead Time
	// outboxes[s] buffers cross-shard transmissions originating on shard s
	// (or from serial code acting on shard-s nodes); drained at barriers.
	outboxes [][]xrec
	// stats[s] is shard s's private statistics lane, folded into
	// Network.Stats when a run completes.
	stats []Stats
	loads []ShardLoad
	// busy/prevProcessed/active are per-window scratch, reused so the epoch
	// loop allocates nothing in steady state.
	busy          []int64
	prevProcessed []int64
	active        []int
}

// Shard partitions the network for parallel execution: nshards private
// schedulers are created and every existing node is assigned to the shard
// shardOf returns for it. It must be called on a fresh network — before any
// event is scheduled — and at most once. Nodes added afterwards must be
// placed with SetNodeShard before they can send or receive.
//
// Sharded runs refuse finite-bandwidth links, delivery traces, and LANs
// spanning shards (see shardSet.prepare); everything else — including the
// packet codec round trip per link crossing — behaves identically to the
// sequential path.
func (n *Network) Shard(nshards int, shardOf func(*Node) int) {
	if n.set != nil {
		panic("netsim: network already sharded")
	}
	if nshards < 2 {
		return
	}
	if n.Sched.now != 0 || n.Sched.Pending() != 0 || n.Sched.Processed != 0 {
		panic("netsim: Shard must be called before any event is scheduled or run")
	}
	ss := &shardSet{
		net:           n,
		n:             nshards,
		scheds:        make([]*Scheduler, nshards),
		outboxes:      make([][]xrec, nshards),
		stats:         make([]Stats, nshards),
		loads:         make([]ShardLoad, nshards),
		busy:          make([]int64, nshards),
		prevProcessed: make([]int64, nshards),
	}
	for i := range ss.scheds {
		ss.scheds[i] = NewScheduler()
		ss.loads[i].Shard = i
	}
	for _, nd := range n.Nodes {
		k := shardOf(nd)
		if k < 0 || k >= nshards {
			panic(fmt.Sprintf("netsim: shard index %d out of range for node %s", k, nd.Name))
		}
		nd.shard = k
	}
	n.set = ss
	n.Sched.set = ss
}

// Sharded reports whether the network executes on multiple shards.
func (n *Network) Sharded() bool { return n.set != nil }

// ShardCount returns the number of shards (1 when unsharded).
func (n *Network) ShardCount() int {
	if n.set == nil {
		return 1
	}
	return n.set.n
}

// SetNodeShard places a node added after Shard() — a host or a LAN anchor —
// on an existing shard (typically its attachment router's).
func (n *Network) SetNodeShard(nd *Node, shard int) {
	if n.set == nil {
		return
	}
	if shard < 0 || shard >= n.set.n {
		panic(fmt.Sprintf("netsim: shard index %d out of range for node %s", shard, nd.Name))
	}
	nd.shard = shard
}

// ShardLoads returns a copy of the per-shard execution counters accumulated
// so far (nil when unsharded).
func (n *Network) ShardLoads() []ShardLoad {
	if n.set == nil {
		return nil
	}
	out := make([]ShardLoad, len(n.set.loads))
	copy(out, n.set.loads)
	return out
}

// EventsProcessed returns the number of scheduler events executed across
// the whole simulation — the root scheduler plus every shard.
func (n *Network) EventsProcessed() int64 {
	total := n.Sched.Processed
	if n.set != nil {
		for _, s := range n.set.scheds {
			total += s.Processed
		}
	}
	return total
}

// PeakLiveTimers returns the scheduler timer-population high-water mark.
// Sharded runs report the sum of per-shard peaks — an upper bound on the
// sharded run's instantaneous global peak (shards need not peak at the same
// moment), but not comparable to the sequential run's peak in either
// direction: cross-shard frames buffered in outboxes are not counted live
// until the barrier merges them. The differential gates mask this field.
func (n *Network) PeakLiveTimers() int {
	total := n.Sched.PeakLiveTimers()
	if n.set != nil {
		for _, s := range n.set.scheds {
			total += s.PeakLiveTimers()
		}
	}
	return total
}

// LiveTimers returns the number of currently pending live events across the
// root scheduler and every shard.
func (n *Network) LiveTimers() int {
	total := n.Sched.LiveTimers()
	if n.set != nil {
		for _, s := range n.set.scheds {
			total += s.LiveTimers()
		}
	}
	return total
}

// schedFor returns the scheduler that owns a node's events.
func (n *Network) schedFor(nd *Node) *Scheduler {
	if n.set != nil {
		return n.set.scheds[nd.shard]
	}
	return n.Sched
}

// statsFor returns the statistics lane a node's activity is charged to: the
// node's shard lane when sharded (folded into Network.Stats at the end of
// each run), the shared Stats otherwise.
func (n *Network) statsFor(nd *Node) *Stats {
	if n.set != nil {
		return &n.set.stats[nd.shard]
	}
	return &n.Stats
}

// prepare validates the topology for sharded execution and derives the
// lookahead window from the current link set.
func (ss *shardSet) prepare() {
	if ss.net.Trace != nil {
		panic("netsim: packet tracing is not supported in sharded runs")
	}
	ss.lookahead = maxTime
	for _, l := range ss.net.Links {
		if l.Bandwidth > 0 {
			panic("netsim: finite-bandwidth links are not supported in sharded runs")
		}
		first := l.Ifaces[0].Node.shard
		cross := false
		for _, ifc := range l.Ifaces[1:] {
			if ifc.Node.shard != first {
				cross = true
				break
			}
		}
		if !cross {
			continue
		}
		if l.IsLAN() {
			panic("netsim: a multi-access LAN may not span shards")
		}
		if l.Delay < ss.lookahead {
			ss.lookahead = l.Delay
		}
	}
	for _, nd := range ss.net.Nodes {
		if nd.shard < 0 || nd.shard >= ss.n {
			panic("netsim: node " + nd.Name + " has no shard assignment")
		}
	}
}

// run is the conservative-lookahead epoch loop behind the root scheduler's
// RunUntil. Each iteration picks the next window boundary — the lookahead
// horizon, the next root-action deadline, or the run deadline, whichever
// comes first — executes all shards in parallel up to it, exchanges
// cross-shard traffic, and runs any root actions pinned to the boundary.
func (ss *shardSet) run(deadline Time) {
	ss.prepare()
	root := ss.net.Sched
	// Halt is honored at window boundaries: root actions run serially, so a
	// halt they raise stops the epoch loop before the next window opens.
	for !root.halted {
		cur := root.now
		b := deadline + 1
		if ss.lookahead < b-cur {
			b = cur + ss.lookahead
		}
		if tAct, ok := root.peekTime(); ok && tAct < b {
			b = tAct
		}
		ss.runWindow(b - 1)
		ss.exchange()
		align := b
		if align > deadline {
			align = deadline
		}
		for _, s := range ss.scheds {
			s.advanceTo(align)
		}
		root.advanceTo(align)
		if b > deadline {
			break
		}
		// Root actions at the boundary run before any shard event at the
		// same instant — they were scheduled from serial phases, so the
		// sequential run would have drained them first too. Their own
		// transmissions join an immediate second exchange.
		for !root.halted {
			ev, ok := root.next(b)
			if !ok {
				break
			}
			root.fire(ev)
		}
		ss.exchange()
	}
	ss.fold()
}

// runWindow executes every shard's events with deadlines <= until,
// concurrently. Shards with no work in the window advance their clocks
// without spawning; a single busy shard runs inline on the caller.
func (ss *shardSet) runWindow(until Time) {
	if until < ss.net.Sched.now {
		return
	}
	activeIdx := ss.active[:0]
	for i, s := range ss.scheds {
		if t, ok := s.peekTime(); ok && t <= until {
			activeIdx = append(activeIdx, i)
			ss.prevProcessed[i] = s.Processed
		} else {
			s.advanceTo(until)
		}
	}
	ss.active = activeIdx
	switch len(activeIdx) {
	case 0:
	case 1:
		i := activeIdx[0]
		start := time.Now()
		ss.scheds[i].runUntil(until)
		ss.busy[i] = time.Since(start).Nanoseconds()
		ss.loads[i].Events += ss.scheds[i].Processed - ss.prevProcessed[i]
	default:
		var wg sync.WaitGroup
		for _, i := range activeIdx {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				start := time.Now()
				ss.scheds[i].runUntil(until)
				ss.busy[i] = time.Since(start).Nanoseconds()
			}(i)
		}
		wg.Wait()
		var max int64
		for _, i := range activeIdx {
			if ss.busy[i] > max {
				max = ss.busy[i]
			}
			ss.loads[i].Events += ss.scheds[i].Processed - ss.prevProcessed[i]
		}
		for _, i := range activeIdx {
			ss.loads[i].BlockedNs += max - ss.busy[i]
		}
	}
	if len(activeIdx) > 0 && len(activeIdx) < ss.n {
		for i := range ss.scheds {
			idle := true
			for _, a := range activeIdx {
				if a == i {
					idle = false
					break
				}
			}
			if idle {
				ss.loads[i].Stalls++
			}
		}
	}
}

// exchange drains every shard's outbox into the destination shards'
// schedulers. No sorting and no rank assignment are needed: every record's
// structural key — (arrival deadline, birth instant, deliveryOrd(src,
// xmit)) — is exactly the key the sequential path would have stamped on the
// same delivery, so the destination scheduler interleaves merged arrivals
// with its own local deliveries in canonical order automatically.
func (ss *shardSet) exchange() {
	for s := range ss.outboxes {
		for _, rec := range ss.outboxes[s] {
			sched := ss.scheds[rec.dst]
			// The record's byte copy becomes the frame buffer outright —
			// ownership transfers to the destination shard's pool, no second
			// copy. Exchange runs serially at the barrier with every shard
			// quiesced, so touching the destination pool here is race-free.
			f := sched.frames.get()
			f.buf = rec.frame
			f.from, f.link, f.nextHop, f.shard = rec.from, rec.link, rec.nextHop, int32(rec.dst)
			sched.enqueueDelivery(rec.at, rec.bs, deliveryOrd(rec.src, rec.xmit), f)
		}
		ss.outboxes[s] = ss.outboxes[s][:0]
	}
}

// fold merges the per-shard statistics lanes into Network.Stats, so every
// post-run reader sees exactly the aggregate a sequential run would have
// produced.
func (ss *shardSet) fold() {
	for i := range ss.stats {
		ss.net.Stats.Merge(&ss.stats[i])
		ss.stats[i] = Stats{}
	}
}
