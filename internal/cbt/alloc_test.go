package cbt

import (
	"testing"

	"pim/internal/addr"
	"pim/internal/metrics"
	"pim/internal/netsim"
	"pim/internal/unicast"
)

// TestEchoRefreshZeroAlloc pins the warm child→parent echo keepalive cycle
// — echo request out, echo reply back, both over pooled frames — at zero
// heap allocations (see the core engine's twin for the warm-up rationale).
func TestEchoRefreshZeroAlloc(t *testing.T) {
	net := netsim.NewNetwork()
	na := net.AddNode("a")
	nb := net.AddNode("b")
	ia := net.AddIface(na, addr.V4(10, 0, 0, 1))
	ib := net.AddIface(nb, addr.V4(10, 0, 0, 2))
	net.Connect(ia, ib, netsim.Millisecond)
	oracle := unicast.NewOracle(net)

	g := addr.GroupForIndex(0)
	cfg := Config{CoreMapping: map[addr.IP]addr.IP{g: ib.Addr}}
	ra := New(na, cfg, oracle.RouterFor(na))
	rb := New(nb, cfg, oracle.RouterFor(nb))
	ra.Start()
	rb.Start()
	// A member behind a makes it join toward the core at b.
	ra.LocalJoin(ia, g)
	net.Sched.RunUntil(2 * netsim.Second)
	if !ra.OnTree(g) {
		t.Fatal("router a did not join the tree")
	}

	cycle := func() {
		ra.keepalive()
		net.Sched.RunUntil(net.Sched.Now() + 10*netsim.Millisecond)
	}
	for i := 0; i < 1500; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("warm echo keepalive cycle: %.2f allocs, want 0", allocs)
	}
}

// TestDataForwardZeroAllocBeyondHeader pins one warm data packet through an
// on-tree router — parent, three children, a member LAN: five transmissions
// over pooled frames, counted and fanned out from the ordered tree state — at
// exactly one heap allocation, the header copy packet.Forwarded makes. When
// that copy goes (its doc comment says what it waits for) this becomes 0.
func TestDataForwardZeroAllocBeyondHeader(t *testing.T) {
	f := newFanoutNet()
	cycle := f.warmFanout()
	before := f.r.Metrics.Get(metrics.DataForwarded)
	cycle()
	if n := f.r.Metrics.Get(metrics.DataForwarded) - before; n != 5 {
		t.Fatalf("%d forwards of one packet, want 5", n)
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 1 {
		t.Errorf("warm on-tree data forward: %.2f allocs, want 1", allocs)
	}
}
