package faults

import (
	"fmt"
	"testing"

	"pim/internal/addr"
	"pim/internal/netsim"
	"pim/internal/packet"
)

// sendNumbered pumps n numbered UDP packets from a in one burst; the
// receiver handler must record arrival order.
func sendNumbered(a *netsim.Node, n int) {
	for i := 0; i < n; i++ {
		pkt := packet.New(a.Ifaces[0].Addr, addr.V4(10, 0, 0, 2), packet.ProtoUDP, []byte{byte(i)})
		a.Send(a.Ifaces[0], pkt, 0)
	}
}

func TestReorderShufflesWithinWindow(t *testing.T) {
	n := netsim.NewNetwork()
	a := n.AddNode("a")
	b := n.AddNode("b")
	ai := n.AddIface(a, addr.V4(10, 0, 0, 1))
	bi := n.AddIface(b, addr.V4(10, 0, 0, 2))
	l := n.Connect(ai, bi, netsim.Millisecond)
	var order []int
	var last netsim.Time
	b.Handle(packet.ProtoUDP, netsim.HandlerFunc(func(in *netsim.Iface, pkt *packet.Packet) {
		order = append(order, int(pkt.Payload[0]))
		last = n.Sched.Now()
	}))
	in := New(n, 42)
	const window = 10 * netsim.Millisecond
	in.SetReorder(l, window, All)
	const N = 64
	sendNumbered(a, N)
	n.Sched.RunUntil(netsim.Second)
	if len(order) != N {
		t.Fatalf("delivered %d of %d (reorder must not drop)", len(order), N)
	}
	inOrder := true
	for i, v := range order {
		if v != i {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Fatal("64 same-instant sends arrived in order under a 10ms reorder window")
	}
	if max := netsim.Millisecond + window; last > max {
		t.Fatalf("last delivery at %v exceeds delay+window bound %v", last, max)
	}
}

func TestReorderDeterministicAcrossRuns(t *testing.T) {
	run := func() string {
		n := netsim.NewNetwork()
		a := n.AddNode("a")
		b := n.AddNode("b")
		ai := n.AddIface(a, addr.V4(10, 0, 0, 1))
		bi := n.AddIface(b, addr.V4(10, 0, 0, 2))
		l := n.Connect(ai, bi, netsim.Millisecond)
		var log string
		b.Handle(packet.ProtoUDP, netsim.HandlerFunc(func(in *netsim.Iface, pkt *packet.Packet) {
			log += fmt.Sprintf("%d@%d ", pkt.Payload[0], n.Sched.Now())
		}))
		New(n, 17).SetReorder(l, 5*netsim.Millisecond, All)
		sendNumbered(a, 100)
		n.Sched.RunUntil(netsim.Second)
		return log
	}
	if x, y := run(), run(); x != y {
		t.Fatalf("same seed produced different delivery orders:\n%s\nvs\n%s", x, y)
	}
}

func TestReorderClassFilterLeavesDataOrdered(t *testing.T) {
	n, a, _, l, _ := twoNodes(t)
	var dataOrder, ctrlOrder []int
	nb := n.Nodes[1]
	nb.Handle(packet.ProtoUDP, netsim.HandlerFunc(func(in *netsim.Iface, pkt *packet.Packet) {
		dataOrder = append(dataOrder, int(pkt.Payload[0]))
	}))
	nb.Handle(packet.ProtoPIM, netsim.HandlerFunc(func(in *netsim.Iface, pkt *packet.Packet) {
		ctrlOrder = append(ctrlOrder, int(pkt.Payload[0]))
	}))
	in := New(n, 9)
	in.SetReorder(l, 20*netsim.Millisecond, ControlOnly)
	for i := 0; i < 32; i++ {
		a.Send(a.Ifaces[0], packet.New(a.Ifaces[0].Addr, addr.V4(10, 0, 0, 2), packet.ProtoUDP, []byte{byte(i)}), 0)
		a.Send(a.Ifaces[0], packet.New(a.Ifaces[0].Addr, addr.V4(10, 0, 0, 2), packet.ProtoPIM, []byte{byte(i)}), 0)
	}
	n.Sched.RunUntil(netsim.Second)
	for i, v := range dataOrder {
		if v != i {
			t.Fatalf("control-only reorder shuffled data: %v", dataOrder)
		}
	}
	ctrlShuffled := false
	for i, v := range ctrlOrder {
		if v != i {
			ctrlShuffled = true
			break
		}
	}
	if !ctrlShuffled {
		t.Fatal("control packets stayed in order under a 20ms control-only window")
	}
}

func TestReorderClearRestoresOrder(t *testing.T) {
	n := netsim.NewNetwork()
	a := n.AddNode("a")
	b := n.AddNode("b")
	ai := n.AddIface(a, addr.V4(10, 0, 0, 1))
	bi := n.AddIface(b, addr.V4(10, 0, 0, 2))
	l := n.Connect(ai, bi, netsim.Millisecond)
	var order []int
	b.Handle(packet.ProtoUDP, netsim.HandlerFunc(func(in *netsim.Iface, pkt *packet.Packet) {
		order = append(order, int(pkt.Payload[0]))
	}))
	in := New(n, 4)
	in.SetReorder(l, 10*netsim.Millisecond, All)
	in.SetReorder(l, 0, All) // window 0 removes the scope's model
	in.SetReorder(nil, 10*netsim.Millisecond, All)
	in.ClearReorder()
	sendNumbered(a, 32)
	n.Sched.RunUntil(netsim.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("cleared reorder still shuffles: %v", order)
		}
	}
}

// reorderChainLogs runs a 4-node chain under global reordering and returns
// each node's receive log. Every node pumps bursts toward the chain end and
// forwards what it hears, so jittered frames from several senders meet at
// every hop; the logs are the determinism witness.
func reorderChainLogs() []string {
	n := netsim.NewNetwork()
	const N = 4
	nodes := make([]*netsim.Node, N)
	for i := range nodes {
		nodes[i] = n.AddNode(fmt.Sprintf("r%d", i))
		n.AddIface(nodes[i], addr.V4(10, byte(i), 0, 1))
		n.AddIface(nodes[i], addr.V4(10, byte(i), 0, 2))
	}
	for i := 0; i+1 < N; i++ {
		n.Connect(nodes[i].Ifaces[1], nodes[i+1].Ifaces[0], 10)
	}
	New(n, 23).SetReorder(nil, 40, All)
	logs := make([]string, N)
	for i := range nodes {
		i := i
		nd := nodes[i]
		nd.Handle(packet.ProtoUDP, netsim.HandlerFunc(func(in *netsim.Iface, pkt *packet.Packet) {
			logs[i] += fmt.Sprintf("%d@%d ", pkt.Payload[0], n.Sched.Now())
			if nd.ID+1 < N {
				fwd := packet.New(pkt.Src, pkt.Dst, packet.ProtoUDP, []byte{pkt.Payload[0]})
				nd.Send(nd.Ifaces[1], fwd, 0)
			}
		}))
	}
	for i := 0; i+1 < N; i++ {
		nd := nodes[i]
		for k := 0; k < 20; k++ {
			k := k
			n.Sched.At(netsim.Time(k*5), func() {
				pkt := packet.New(nd.Ifaces[1].Addr, addr.V4(10, 9, 0, 1), packet.ProtoUDP, []byte{byte(k)})
				nd.Send(nd.Ifaces[1], pkt, 0)
			})
		}
	}
	n.Sched.RunUntil(5 * netsim.Second)
	return logs
}

// TestReorderChainDeterministic pins the primitive's core guarantee:
// per-transmitting-interface streams make the jitter sequence a function of
// each sender's own send order, so two runs at one seed give identical
// receive logs at every node of a multi-hop chain (node 0 only sends).
func TestReorderChainDeterministic(t *testing.T) {
	base, got := reorderChainLogs(), reorderChainLogs()
	for i := range base {
		if i > 0 && base[i] == "" {
			t.Fatalf("node %d received nothing; the comparison is vacuous", i)
		}
		if got[i] != base[i] {
			t.Fatalf("node %d log diverged between two runs at one seed:\n%s\nvs\n%s", i, base[i], got[i])
		}
	}
}

// --- Gilbert boundary transitions (satellite: p=0 / p=1 edges) ---

// TestGilbertPOneAlternatesDeterministically pins the p=1 boundary: with
// both transition probabilities 1 the channel flips state on every consulted
// packet, so LossBad=1/LossGood=0 drops exactly every other packet starting
// with the first — independent of the seed.
func TestGilbertPOneAlternatesDeterministically(t *testing.T) {
	for _, seed := range []int64{1, 99, 12345} {
		n, a, _, l, got := twoNodes(t)
		in := New(n, seed)
		in.SetGilbert(l, GilbertParams{PGoodBad: 1, PBadGood: 1, LossGood: 0, LossBad: 1}, All)
		const N = 10
		for i := 0; i < N; i++ {
			a.Send(a.Ifaces[0], packet.New(a.Ifaces[0].Addr, addr.V4(10, 0, 0, 2), packet.ProtoUDP, make([]byte, 8)), 0)
		}
		n.Sched.RunUntil(netsim.Second)
		if *got != N/2 {
			t.Fatalf("seed %d: alternating channel delivered %d of %d, want exactly %d",
				seed, *got, N, N/2)
		}
	}
}

// TestGilbertPZeroNeverLeavesGood pins the p=0 boundary: PGoodBad=0 can
// never enter the bad state, so even LossBad=1 drops nothing.
func TestGilbertPZeroNeverLeavesGood(t *testing.T) {
	n, a, _, l, got := twoNodes(t)
	in := New(n, 7)
	in.SetGilbert(l, GilbertParams{PGoodBad: 0, PBadGood: 0, LossGood: 0, LossBad: 1}, All)
	const N = 200
	for i := 0; i < N; i++ {
		a.Send(a.Ifaces[0], packet.New(a.Ifaces[0].Addr, addr.V4(10, 0, 0, 2), packet.ProtoUDP, make([]byte, 8)), 0)
	}
	n.Sched.RunUntil(netsim.Second)
	if *got != N {
		t.Fatalf("PGoodBad=0 channel dropped packets: delivered %d of %d", *got, N)
	}
}

// TestGilbertAbsorbingBadState pins the other p=0/p=1 corner: PGoodBad=1
// with PBadGood=0 enters the bad state on the first packet and never
// leaves, so LossBad=1 drops everything.
func TestGilbertAbsorbingBadState(t *testing.T) {
	n, a, _, l, got := twoNodes(t)
	in := New(n, 11)
	in.SetGilbert(l, GilbertParams{PGoodBad: 1, PBadGood: 0, LossGood: 0, LossBad: 1}, All)
	const N = 50
	for i := 0; i < N; i++ {
		a.Send(a.Ifaces[0], packet.New(a.Ifaces[0].Addr, addr.V4(10, 0, 0, 2), packet.ProtoUDP, make([]byte, 8)), 0)
	}
	n.Sched.RunUntil(netsim.Second)
	if *got != 0 {
		t.Fatalf("absorbing bad state delivered %d packets, want 0", *got)
	}
	if n.Stats.Drops[netsim.DropInjectedLoss] != N {
		t.Fatalf("drop ledger %v, want %d injected drops", n.Stats.DropsByName(), N)
	}
}
