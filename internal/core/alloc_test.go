package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pim/internal/addr"
	"pim/internal/netsim"
	"pim/internal/unicast"
)

// TestQueryRefreshZeroAlloc pins the warm periodic-query send path —
// append-encode into the router's scratch, pooled transmit frame, delivery,
// into-decode, neighbor-table refresh — at zero heap allocations per cycle.
// A regression here means an encoder started copying, a send site stopped
// using the shared scratch, or frame recycling broke (DESIGN.md §13).
//
// The warm loop is long deliberately: timing-wheel slots grow their backing
// arrays on first touch, and the delivery deadlines walk the slot space, so
// the steady state is only reached once every slot on the cadence's orbit
// has capacity. The measured window stays well inside one QueryInterval so
// no periodic tick (whose re-arm legitimately allocates a timer) fires.
func TestQueryRefreshZeroAlloc(t *testing.T) {
	net := netsim.NewNetwork()
	na := net.AddNode("a")
	nb := net.AddNode("b")
	ia := net.AddIface(na, addr.V4(10, 0, 0, 1))
	ib := net.AddIface(nb, addr.V4(10, 0, 0, 2))
	net.Connect(ia, ib, netsim.Millisecond)
	oracle := unicast.NewOracle(net)

	ra := New(na, Config{}, oracle.RouterFor(na))
	rb := New(nb, Config{}, oracle.RouterFor(nb))
	ra.Start()
	rb.Start()
	net.Sched.RunUntil(2 * netsim.Second)

	cycle := func() {
		ra.sendQueries()
		rb.sendQueries()
		net.Sched.RunUntil(net.Sched.Now() + 10*netsim.Millisecond)
	}
	for i := 0; i < 1500; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("warm query refresh cycle: %.2f allocs, want 0", allocs)
	}
}

// sparseLine builds the shared-tree line member — a — b — c=RP used by the
// sparse-mode allocation pins: a is the DR for the member LAN (no peer on
// it), and each of the n groups is joined there and has reached the RP.
func sparseLine(t *testing.T, n int) (net *netsim.Network, ra, rb, rc *Router, host *netsim.Iface, groups []addr.IP) {
	t.Helper()
	net = netsim.NewNetwork()
	na := net.AddNode("a")
	nb := net.AddNode("b")
	nc := net.AddNode("c")
	host = net.AddIface(na, addr.V4(10, 100, 0, 1)) // member LAN, no peer
	iab := net.AddIface(na, addr.V4(10, 0, 0, 1))
	iba := net.AddIface(nb, addr.V4(10, 0, 0, 2))
	ibc := net.AddIface(nb, addr.V4(10, 0, 1, 1))
	icb := net.AddIface(nc, addr.V4(10, 0, 1, 2))
	net.Connect(iab, iba, netsim.Millisecond)
	net.Connect(ibc, icb, netsim.Millisecond)
	oracle := unicast.NewOracle(net)

	rpMap := map[addr.IP][]addr.IP{}
	groups = make([]addr.IP, n)
	for i := range groups {
		groups[i] = addr.GroupForIndex(i)
		rpMap[groups[i]] = []addr.IP{icb.Addr}
	}
	cfg := Config{RPMapping: rpMap}
	ra = New(na, cfg, oracle.RouterFor(na))
	rb = New(nb, cfg, oracle.RouterFor(nb))
	rc = New(nc, cfg, oracle.RouterFor(nc))
	ra.Start()
	rb.Start()
	rc.Start()
	net.Sched.RunUntil(2 * netsim.Second)
	for _, g := range groups {
		ra.LocalJoin(host, g)
	}
	net.Sched.RunUntil(net.Sched.Now() + 2*netsim.Second)
	for _, g := range groups {
		if rb.MFIB.Wildcard(g) == nil || rc.MFIB.Wildcard(g) == nil {
			t.Fatalf("shared tree for %v did not reach the RP", g)
		}
	}
	return net, ra, rb, rc, host, groups
}

// warmZeroAlloc runs cycle long enough to reach steady state, then asserts
// it allocates nothing. The warm loop is long for the reason
// TestQueryRefreshZeroAlloc gives; callers keep the measured window inside
// one periodic interval of every timer they do not mean to exercise.
func warmZeroAlloc(t *testing.T, what string, cycle func()) {
	t.Helper()
	for i := 0; i < 1500; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("%s: %.2f allocs, want 0", what, allocs)
	}
}

// TestJoinPruneRefreshZeroAlloc pins the warm periodic join/prune refresh —
// the batching walk over the MFIB, per-destination record assembly in the
// simulation's reusable jpBatch/jpMsg scratch, append-encode, pooled transmit,
// and the receivers' into-decode plus oif refresh — at zero heap
// allocations per cycle. This is the steady-state control-plane path every
// sparse-mode router runs every JoinPruneInterval for every entry, so a
// single allocation here multiplies by the whole internet (DESIGN.md §16).
//
// The topology is a pure shared-tree line (member — a — b — c=RP) with
// several joined groups, so the refresh carries multiple group records per
// message and the grab/add batching paths are all exercised; nothing
// triggers non-periodic sends mid-measure.
//
// a and b batch into one scratch, the simulation's: b's refresh, right after
// a's, must reuse what a's left grown, not grow it again.
func TestJoinPruneRefreshZeroAlloc(t *testing.T) {
	net, ra, rb, _, _, _ := sparseLine(t, 4)
	if ra.s != rb.s {
		t.Fatal("two routers of one simulation hold different scratch")
	}
	warmZeroAlloc(t, "warm join/prune refresh cycle", func() {
		ra.periodicRefresh()
		rb.periodicRefresh()
		net.Sched.RunUntil(net.Sched.Now() + 10*netsim.Millisecond)
	})
}

// TestSimulationScratchFootprint pins who owns the per-call scratch
// (DESIGN.md §13): every router of one simulation shares its network's, a
// restart keeps it, a second simulation gets a fresh one, and a finished
// simulation — scratch included — is garbage once nothing refers to it. A
// scratch per router costs each of sparse-churn's 1 024 routers its own
// high-water buffers; one at package level, or kept in a map keyed by
// simulation, outlives the simulation, and the last check fails.
func TestSimulationScratchFootprint(t *testing.T) {
	collected := new(atomic.Bool)
	func() {
		net, ra, rb, rc, _, _ := sparseLine(t, 2)
		if ra.s != rb.s || rb.s != rc.s || ra.s != netsim.Scratch[scratch](net) {
			t.Fatal("the routers of one simulation hold different scratch")
		}
		first := ra.s
		ra.Restart()
		net.Sched.RunUntil(net.Sched.Now() + 2*netsim.Second)
		if ra.s != first {
			t.Fatal("a restarted router took a new scratch")
		}
		_, sa, _, _, _, _ := sparseLine(t, 1)
		if sa.s == first {
			t.Fatal("a second simulation shares the first one's scratch")
		}
		runtime.AddCleanup(net, func(done *atomic.Bool) { done.Store(true) }, collected)
	}()
	for i := 0; i < 50 && !collected.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !collected.Load() {
		t.Fatal("a finished simulation's network was never collected: something outside it keeps it alive")
	}
}

// TestLocalRejoinZeroAlloc pins a member re-joining a group whose (*,G)
// already exists (§3.2): the triggered join is encoded into the router's
// scratch, the upstream refreshes its oif, and the RP fail-over timer is
// re-armed in place (§3.9) rather than replaced by a new timer and closure.
func TestLocalRejoinZeroAlloc(t *testing.T) {
	net, ra, _, _, host, groups := sparseLine(t, 1)
	warmZeroAlloc(t, "warm local re-join", func() {
		ra.LocalJoin(host, groups[0])
		net.Sched.RunUntil(net.Sched.Now() + 10*netsim.Millisecond)
	})
}

// TestLocalLeaveRejoinZeroAlloc pins one member leave and re-join on a warm
// (*,G) (§3.6, §3.2): the member router goes Joined → PrunePending → Joined
// through upstream (DESIGN.md §21), sending its prune and its triggered join
// from the router's scratch, and b and the RP follow the prune.
func TestLocalLeaveRejoinZeroAlloc(t *testing.T) {
	net, ra, _, _, host, groups := sparseLine(t, 1)
	g := groups[0]
	step := func() { net.Sched.RunUntil(net.Sched.Now() + 5*netsim.Millisecond) }
	warmZeroAlloc(t, "warm local leave and re-join", func() {
		ra.LocalLeave(host, g)
		step()
		if ra.MFIB.Wildcard(g).DeleteAt == 0 {
			t.Fatal("a left its last member but did not prune")
		}
		ra.LocalJoin(host, g)
		step()
	})
}

// TestRPReachZeroAlloc pins one RP-reachability message from the RP down
// the shared tree to a router with local members (§3.2, §3.9): the transit
// router relays it, and the member router re-arms its fail-over timer in
// place and passes the message on to its member LAN.
func TestRPReachZeroAlloc(t *testing.T) {
	net, ra, _, rc, _, groups := sparseLine(t, 1)
	if ra.rpTimer[groups[0]] == nil {
		t.Fatal("member router armed no RP timer")
	}
	warmZeroAlloc(t, "warm RP-reach relay to a member router", func() {
		rc.originateRPReach()
		net.Sched.RunUntil(net.Sched.Now() + 10*netsim.Millisecond)
	})
}

// TestPointToPointPruneZeroAlloc pins a (*,G) prune over a point-to-point
// link (§3.6), which applies at once with no override delay, together with
// the join that restores the branch. The upstream keeps a local member, so
// the prune leaves its entry non-empty and sends nothing further.
func TestPointToPointPruneZeroAlloc(t *testing.T) {
	net, ra, rb, _, _, groups := sparseLine(t, 1)
	g := groups[0]
	rb.LocalJoin(net.AddIface(rb.Node, addr.V4(10, 100, 1, 1)), g)
	wc := ra.MFIB.Wildcard(g)
	send := func(prune bool) {
		ra.sendJoinPrune(wc.IIF, wc.UpstreamNeighbor, g, jpAddr(wc, 0), prune)
		net.Sched.RunUntil(net.Sched.Now() + 10*netsim.Millisecond)
	}
	bwc := rb.MFIB.Wildcard(g)
	if send(true); bwc.OIFCount() != 1 || bwc.DeleteAt != 0 {
		t.Fatalf("after the prune b holds %d oifs (delete at %v), want its member LAN only", bwc.OIFCount(), bwc.DeleteAt)
	}
	warmZeroAlloc(t, "warm point-to-point prune and re-join", func() {
		send(false)
		send(true)
	})
}
