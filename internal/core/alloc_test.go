package core

import (
	"testing"

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

// TestJoinPruneRefreshZeroAlloc pins the warm periodic join/prune refresh —
// the batching walk over the MFIB, per-destination record assembly in the
// router's reusable jpBatch/jpMsg scratch, append-encode, pooled transmit,
// and the receivers' into-decode plus oif refresh — at zero heap
// allocations per cycle. This is the steady-state control-plane path every
// sparse-mode router runs every JoinPruneInterval for every entry, so a
// single allocation here multiplies by the whole internet (DESIGN.md §16).
//
// The topology is a pure shared-tree line (member — a — b — c=RP) with
// several joined groups, so the refresh carries multiple group records per
// message and the grab/add batching paths are all exercised; nothing
// triggers non-periodic sends mid-measure.
func TestJoinPruneRefreshZeroAlloc(t *testing.T) {
	net := netsim.NewNetwork()
	na := net.AddNode("a")
	nb := net.AddNode("b")
	nc := net.AddNode("c")
	host := net.AddIface(na, addr.V4(10, 100, 0, 1)) // member LAN, no peer
	iab := net.AddIface(na, addr.V4(10, 0, 0, 1))
	iba := net.AddIface(nb, addr.V4(10, 0, 0, 2))
	ibc := net.AddIface(nb, addr.V4(10, 0, 1, 1))
	icb := net.AddIface(nc, addr.V4(10, 0, 1, 2))
	net.Connect(iab, iba, netsim.Millisecond)
	net.Connect(ibc, icb, netsim.Millisecond)
	oracle := unicast.NewOracle(net)

	const n = 4
	rpMap := map[addr.IP][]addr.IP{}
	groups := make([]addr.IP, n)
	for i := range groups {
		groups[i] = addr.GroupForIndex(i)
		rpMap[groups[i]] = []addr.IP{icb.Addr}
	}
	cfg := Config{RPMapping: rpMap}
	ra := New(na, cfg, oracle.RouterFor(na))
	rb := New(nb, cfg, oracle.RouterFor(nb))
	rc := New(nc, cfg, oracle.RouterFor(nc))
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

	cycle := func() {
		ra.periodicRefresh()
		rb.periodicRefresh()
		net.Sched.RunUntil(net.Sched.Now() + 10*netsim.Millisecond)
	}
	for i := 0; i < 1500; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("warm join/prune refresh cycle: %.2f allocs, want 0", allocs)
	}
}
