package dvmrp

import (
	"testing"

	"pim/internal/addr"
	"pim/internal/netsim"
	"pim/internal/unicast"
)

// TestProbeRefreshZeroAlloc pins the warm periodic neighbor-probe send path
// at zero heap allocations per cycle (see the core engine's twin for the
// warm-up rationale).
func TestProbeRefreshZeroAlloc(t *testing.T) {
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
		ra.sendProbes()
		rb.sendProbes()
		net.Sched.RunUntil(net.Sched.Now() + 10*netsim.Millisecond)
	}
	for i := 0; i < 1500; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("warm probe refresh cycle: %.2f allocs, want 0", allocs)
	}
}
