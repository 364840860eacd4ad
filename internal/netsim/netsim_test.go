package netsim

import (
	"testing"

	"pim/internal/addr"
	"pim/internal/packet"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.After(10, func() { order = append(order, 2) })
	s.After(5, func() { order = append(order, 1) })
	s.After(20, func() { order = append(order, 3) })
	s.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 20 {
		t.Errorf("Now = %d, want 20", s.Now())
	}
}

func TestSchedulerFIFOAtSameTime(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(7, func() { order = append(order, i) })
	}
	s.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler()
	var hits []Time
	s.After(5, func() {
		hits = append(hits, s.Now())
		s.After(5, func() { hits = append(hits, s.Now()) })
	})
	s.Run(0)
	if len(hits) != 2 || hits[0] != 5 || hits[1] != 10 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestTimerStop(t *testing.T) {
	s := NewScheduler()
	fired := false
	tm := s.After(5, func() { fired = true })
	if !tm.Active() {
		t.Error("timer should be active")
	}
	if !tm.Stop() {
		t.Error("Stop should succeed")
	}
	if tm.Stop() {
		t.Error("second Stop should fail")
	}
	s.Run(0)
	if fired {
		t.Error("stopped timer fired")
	}
	tm2 := s.After(1, func() {})
	s.Run(0)
	if tm2.Stop() {
		t.Error("Stop after firing should fail")
	}
	if tm2.Active() {
		t.Error("fired timer should be inactive")
	}
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	for _, d := range []Time{3, 6, 9} {
		d := d
		s.After(d, func() { fired = append(fired, d) })
	}
	s.RunUntil(6)
	if len(fired) != 2 {
		t.Fatalf("fired = %v", fired)
	}
	if s.Now() != 6 {
		t.Errorf("Now = %d", s.Now())
	}
	s.RunUntil(100)
	if len(fired) != 3 || s.Now() != 100 {
		t.Errorf("after second RunUntil: fired=%v now=%d", fired, s.Now())
	}
}

func TestRunUntilIncludesSpawnedEvents(t *testing.T) {
	s := NewScheduler()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			s.After(2, tick)
		}
	}
	s.After(2, tick)
	s.RunUntil(10)
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
}

func TestNegativeAndPastScheduling(t *testing.T) {
	s := NewScheduler()
	s.RunUntil(50)
	fired := Time(-1)
	s.After(-10, func() { fired = s.Now() })
	s.At(10, func() {}) // in the past: clamped, must not rewind clock
	s.Run(0)
	if fired != 50 {
		t.Errorf("negative-delay event fired at %d, want 50", fired)
	}
	if s.Now() != 50 {
		t.Errorf("clock rewound to %d", s.Now())
	}
}

func TestRunMaxEvents(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 10; i++ {
		s.After(Time(i), func() {})
	}
	if n := s.Run(4); n != 4 {
		t.Errorf("Run(4) executed %d", n)
	}
	if s.Pending() != 6 {
		t.Errorf("Pending = %d", s.Pending())
	}
}

// buildPair wires two nodes with a point-to-point link.
func buildPair(t *testing.T, delay Time) (*Network, *Node, *Node) {
	t.Helper()
	n := NewNetwork()
	a := n.AddNode("a")
	b := n.AddNode("b")
	ia := n.AddIface(a, addr.V4(10, 0, 0, 1))
	ib := n.AddIface(b, addr.V4(10, 0, 0, 2))
	n.Connect(ia, ib, delay)
	return n, a, b
}

func TestPointToPointDelivery(t *testing.T) {
	n, a, b := buildPair(t, 5*Millisecond)
	var got *packet.Packet
	var gotIface *Iface
	var at Time
	b.Handle(packet.ProtoUDP, HandlerFunc(func(in *Iface, pkt *packet.Packet) {
		got, gotIface, at = pkt, in, n.Sched.Now()
	}))
	pkt := packet.New(a.Addr(), b.Addr(), packet.ProtoUDP, []byte("hello"))
	a.Send(a.Ifaces[0], pkt, 0)
	n.Sched.Run(0)
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if string(got.Payload) != "hello" {
		t.Errorf("payload %q", got.Payload)
	}
	if gotIface != b.Ifaces[0] {
		t.Errorf("wrong arrival interface %v", gotIface)
	}
	if at != 5*Millisecond {
		t.Errorf("delivered at %d, want %d", at, 5*Millisecond)
	}
}

func TestNoHandlerDrops(t *testing.T) {
	n, a, _ := buildPair(t, 1)
	a.Send(a.Ifaces[0], packet.New(1, 2, packet.ProtoUDP, nil), 0)
	n.Sched.Run(0)
	if n.Stats.Drops[DropNoHandler] != 1 {
		t.Errorf("drops = %v", n.Stats.Drops)
	}
}

func TestLANDeliversToAllForMulticast(t *testing.T) {
	n := NewNetwork()
	var ifaces []*Iface
	received := map[string]int{}
	for _, name := range []string{"r1", "r2", "r3", "r4"} {
		nd := n.AddNode(name)
		ifc := n.AddIface(nd, addr.V4(10, 1, 0, byte(len(ifaces)+1)))
		ifaces = append(ifaces, ifc)
		name := name
		nd.Handle(packet.ProtoPIM, HandlerFunc(func(in *Iface, pkt *packet.Packet) {
			received[name]++
		}))
	}
	n.ConnectLAN(1*Millisecond, ifaces...)
	src := ifaces[0]
	src.Node.Send(src, packet.New(src.Addr, addr.AllRouters, packet.ProtoPIM, []byte{1}), 0)
	n.Sched.Run(0)
	if received["r1"] != 0 {
		t.Error("sender received its own frame")
	}
	for _, name := range []string{"r2", "r3", "r4"} {
		if received[name] != 1 {
			t.Errorf("%s received %d, want 1", name, received[name])
		}
	}
}

func TestLANUnicastNextHopFiltering(t *testing.T) {
	n := NewNetwork()
	var ifaces []*Iface
	received := map[int]int{}
	for i := 0; i < 3; i++ {
		nd := n.AddNode("n")
		ifc := n.AddIface(nd, addr.V4(10, 1, 0, byte(i+1)))
		ifaces = append(ifaces, ifc)
		i := i
		nd.Handle(packet.ProtoUDP, HandlerFunc(func(in *Iface, pkt *packet.Packet) {
			received[i]++
		}))
	}
	n.ConnectLAN(1, ifaces...)
	// Unicast frame with explicit next hop: only that station receives it.
	pkt := packet.New(ifaces[0].Addr, addr.V4(99, 0, 0, 1), packet.ProtoUDP, nil)
	ifaces[0].Node.Send(ifaces[0], pkt, ifaces[2].Addr)
	n.Sched.Run(0)
	if received[1] != 0 || received[2] != 1 {
		t.Errorf("received = %v, want only station 2", received)
	}
}

func TestLinkDownBlocksDelivery(t *testing.T) {
	n, a, b := buildPair(t, 1)
	got := 0
	b.Handle(packet.ProtoUDP, HandlerFunc(func(in *Iface, pkt *packet.Packet) { got++ }))
	link := n.Links[0]
	n.SetLinkUp(link, false)
	a.Send(a.Ifaces[0], packet.New(1, 2, packet.ProtoUDP, nil), 0)
	n.Sched.Run(0)
	if got != 0 {
		t.Error("delivery over down link")
	}
	if n.Stats.Drops[DropIfaceDown] != 1 {
		t.Errorf("drops = %v", n.Stats.Drops)
	}
}

func TestLinkDownMidFlight(t *testing.T) {
	n, a, b := buildPair(t, 10*Millisecond)
	got := 0
	b.Handle(packet.ProtoUDP, HandlerFunc(func(in *Iface, pkt *packet.Packet) { got++ }))
	a.Send(a.Ifaces[0], packet.New(1, 2, packet.ProtoUDP, nil), 0)
	// Cut the link while the frame is in flight.
	n.Sched.After(5*Millisecond, func() { n.SetLinkUp(n.Links[0], false) })
	n.Sched.Run(0)
	if got != 0 {
		t.Error("in-flight frame survived link cut")
	}
}

func TestLinkChangeCallback(t *testing.T) {
	n, a, _ := buildPair(t, 1)
	var changed []*Iface
	a.OnLinkChange(func(ifc *Iface) { changed = append(changed, ifc) })
	n.SetLinkUp(n.Links[0], false)
	n.SetLinkUp(n.Links[0], false) // no-op: already down
	n.SetLinkUp(n.Links[0], true)
	if len(changed) != 2 {
		t.Errorf("callbacks = %d, want 2", len(changed))
	}
}

func TestStatsClassification(t *testing.T) {
	n, a, b := buildPair(t, 1)
	b.Handle(packet.ProtoUDP, HandlerFunc(func(in *Iface, pkt *packet.Packet) {}))
	b.Handle(packet.ProtoPIM, HandlerFunc(func(in *Iface, pkt *packet.Packet) {}))
	a.Send(a.Ifaces[0], packet.New(1, 2, packet.ProtoUDP, make([]byte, 100)), 0)
	a.Send(a.Ifaces[0], packet.New(1, 2, packet.ProtoPIM, make([]byte, 10)), 0)
	a.Send(a.Ifaces[0], packet.New(1, 2, packet.ProtoIGMP, make([]byte, 8)), 0) // b has no IGMP handler
	n.Sched.Run(0)
	if n.Stats.Totals.DataPackets != 1 || n.Stats.Totals.ControlPackets != 2 {
		t.Errorf("totals = %+v", n.Stats.Totals)
	}
	if n.Stats.Totals.DataBytes != 120 {
		t.Errorf("data bytes = %d", n.Stats.Totals.DataBytes)
	}
	if n.Stats.Received != 2 || n.Stats.Drops[DropNoHandler] != 1 {
		t.Errorf("received = %d, no-handler drops = %d; want 2 and 1", n.Stats.Received, n.Stats.Drops[DropNoHandler])
	}
	if n.Stats.LinksCarryingData() != 1 {
		t.Errorf("links carrying data = %d", n.Stats.LinksCarryingData())
	}
	if n.Stats.MaxLinkDataPackets() != 1 {
		t.Errorf("max link data = %d", n.Stats.MaxLinkDataPackets())
	}
}

func TestIfaceToAndOwnsAddr(t *testing.T) {
	n, a, b := buildPair(t, 1)
	if got := a.IfaceTo(b.Addr()); got != a.Ifaces[0] {
		t.Errorf("IfaceTo = %v", got)
	}
	if a.IfaceTo(addr.V4(1, 1, 1, 1)) != nil {
		t.Error("IfaceTo unknown neighbor should be nil")
	}
	if !a.OwnsAddr(a.Addr()) || a.OwnsAddr(b.Addr()) {
		t.Error("OwnsAddr wrong")
	}
	if n.IfaceByAddr(b.Addr()) != b.Ifaces[0] {
		t.Error("IfaceByAddr lookup failed")
	}
}

func TestLocalSend(t *testing.T) {
	_, a, _ := buildPair(t, 1)
	got := 0
	a.Handle(packet.ProtoPIMData, HandlerFunc(func(in *Iface, pkt *packet.Packet) { got++ }))
	a.LocalSend(a.Ifaces[0], packet.New(1, 2, packet.ProtoPIMData, nil))
	if got != 1 {
		t.Error("LocalSend not delivered")
	}
}

func BenchmarkLANBroadcast(b *testing.B) {
	n := NewNetwork()
	var ifaces []*Iface
	for i := 0; i < 10; i++ {
		nd := n.AddNode("n")
		nd.Handle(packet.ProtoUDP, HandlerFunc(func(in *Iface, pkt *packet.Packet) {}))
		ifaces = append(ifaces, n.AddIface(nd, addr.V4(10, 0, 0, byte(i+1))))
	}
	n.ConnectLAN(1, ifaces...)
	pkt := packet.New(ifaces[0].Addr, addr.AllSystems, packet.ProtoUDP, make([]byte, 64))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ifaces[0].Node.Send(ifaces[0], pkt, 0)
		n.Sched.Run(0)
	}
}

func TestLossInjection(t *testing.T) {
	n, a, b := buildPair(t, 1)
	got := 0
	b.Handle(packet.ProtoUDP, HandlerFunc(func(in *Iface, pkt *packet.Packet) { got++ }))
	drop := true
	n.Loss = func(from, to *Iface, pkt *packet.Packet) bool { return drop }
	a.Send(a.Ifaces[0], packet.New(1, 2, packet.ProtoUDP, nil), 0)
	n.Sched.Run(0)
	if got != 0 {
		t.Fatal("frame survived injected loss")
	}
	if n.Stats.Drops[DropInjectedLoss] != 1 {
		t.Errorf("drops = %v", n.Stats.Drops)
	}
	drop = false
	a.Send(a.Ifaces[0], packet.New(1, 2, packet.ProtoUDP, nil), 0)
	n.Sched.Run(0)
	if got != 1 {
		t.Error("frame lost without injection")
	}
}

func TestFiniteBandwidthSerializesAndQueues(t *testing.T) {
	n, a, b := buildPair(t, 10*Millisecond)
	link := n.Links[0]
	link.Bandwidth = 1000 // bytes/sec: a 100B frame takes 100ms to serialize
	var arrivals []Time
	b.Handle(packet.ProtoUDP, HandlerFunc(func(in *Iface, pkt *packet.Packet) {
		arrivals = append(arrivals, n.Sched.Now())
	}))
	// Two back-to-back 80B-payload frames (100B with header).
	for i := 0; i < 2; i++ {
		a.Send(a.Ifaces[0], packet.New(1, 2, packet.ProtoUDP, make([]byte, 80)), 0)
	}
	n.Sched.Run(0)
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	// First: 100ms tx + 10ms prop = 110ms. Second queues 100ms behind.
	if arrivals[0] != 110*Millisecond {
		t.Errorf("first arrival at %v, want 110ms", arrivals[0])
	}
	if arrivals[1] != 210*Millisecond {
		t.Errorf("second arrival at %v, want 210ms", arrivals[1])
	}
	if link.MaxQueueDelay != 100*Millisecond {
		t.Errorf("MaxQueueDelay = %v, want 100ms", link.MaxQueueDelay)
	}
}

func TestInfiniteBandwidthUnchanged(t *testing.T) {
	n, a, b := buildPair(t, 5*Millisecond)
	var arrivals []Time
	b.Handle(packet.ProtoUDP, HandlerFunc(func(in *Iface, pkt *packet.Packet) {
		arrivals = append(arrivals, n.Sched.Now())
	}))
	for i := 0; i < 2; i++ {
		a.Send(a.Ifaces[0], packet.New(1, 2, packet.ProtoUDP, make([]byte, 80)), 0)
	}
	n.Sched.Run(0)
	if len(arrivals) != 2 || arrivals[0] != 5*Millisecond || arrivals[1] != 5*Millisecond {
		t.Errorf("arrivals = %v, want both at 5ms", arrivals)
	}
}

// TestLANSetLinkUpNotifiesAllStations covers link down/up on a multi-access
// (>2-iface) link: every attached node's subscribers fire, in attachment
// order, exactly once per state change.
func TestLANSetLinkUpNotifiesAllStations(t *testing.T) {
	n := NewNetwork()
	var ifaces []*Iface
	var fired []string
	for _, name := range []string{"r1", "r2", "r3", "r4"} {
		nd := n.AddNode(name)
		ifc := n.AddIface(nd, addr.V4(10, 1, 0, byte(len(ifaces)+1)))
		ifaces = append(ifaces, ifc)
		name := name
		nd.OnLinkChange(func(in *Iface) { fired = append(fired, name) })
	}
	lan := n.ConnectLAN(1*Millisecond, ifaces...)

	n.SetLinkUp(lan, false)
	want := []string{"r1", "r2", "r3", "r4"}
	if len(fired) != len(want) {
		t.Fatalf("down fired %v, want one callback per station", fired)
	}
	for i, name := range want {
		if fired[i] != name {
			t.Fatalf("down firing order %v, want attachment order %v", fired, want)
		}
	}
	// Delivery is blocked while down, for every station.
	got := 0
	for _, ifc := range ifaces[1:] {
		ifc.Node.Handle(packet.ProtoPIM, HandlerFunc(func(in *Iface, pkt *packet.Packet) { got++ }))
	}
	src := ifaces[0]
	src.Node.Send(src, packet.New(src.Addr, addr.AllRouters, packet.ProtoPIM, []byte{1}), 0)
	n.Sched.Run(0)
	if got != 0 {
		t.Fatalf("%d stations heard a frame on a down LAN", got)
	}

	fired = nil
	n.SetLinkUp(lan, true)
	n.SetLinkUp(lan, true) // no-op: already up
	if len(fired) != len(want) {
		t.Fatalf("up fired %v, want one callback per station", fired)
	}
	src.Node.Send(src, packet.New(src.Addr, addr.AllRouters, packet.ProtoPIM, []byte{1}), 0)
	n.Sched.Run(0)
	if got != 3 {
		t.Fatalf("restored LAN delivered to %d stations, want 3", got)
	}
}

// TestOnLinkChangeFiringOrderPerNode covers multiple subscribers on one
// node: they fire in registration order.
func TestOnLinkChangeFiringOrderPerNode(t *testing.T) {
	n, a, _ := buildPair(t, 1)
	var order []int
	a.OnLinkChange(func(*Iface) { order = append(order, 1) })
	a.OnLinkChange(func(*Iface) { order = append(order, 2) })
	a.OnLinkChange(func(*Iface) { order = append(order, 3) })
	n.SetLinkUp(n.Links[0], false)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("subscribers fired in order %v, want registration order", order)
	}
}

// TestSetIfaceUp covers the fail-stop router model: one station's interface
// goes down, the link and the other stations stay up, and every node on the
// link is notified (unicast routing must route around the dead station).
func TestSetIfaceUp(t *testing.T) {
	n := NewNetwork()
	var ifaces []*Iface
	fired := map[string]int{}
	for _, name := range []string{"r1", "r2", "r3"} {
		nd := n.AddNode(name)
		ifc := n.AddIface(nd, addr.V4(10, 1, 0, byte(len(ifaces)+1)))
		ifaces = append(ifaces, ifc)
		name := name
		nd.OnLinkChange(func(*Iface) { fired[name]++ })
	}
	lan := n.ConnectLAN(1*Millisecond, ifaces...)

	n.SetIfaceUp(ifaces[1], false)
	if lan.Up() != true {
		t.Fatal("iface-down took the whole link down")
	}
	if ifaces[1].Up() {
		t.Fatal("iface still up")
	}
	for _, name := range []string{"r1", "r2", "r3"} {
		if fired[name] != 1 {
			t.Fatalf("link-change notifications %v, want 1 per station", fired)
		}
	}
	n.SetIfaceUp(ifaces[1], false) // no-op: already down
	if fired["r1"] != 1 {
		t.Fatal("no-op SetIfaceUp fired callbacks")
	}

	// The dead station neither receives...
	got := map[string]int{}
	for i, ifc := range ifaces {
		name := []string{"r1", "r2", "r3"}[i]
		ifc.Node.Handle(packet.ProtoPIM, HandlerFunc(func(in *Iface, pkt *packet.Packet) { got[name]++ }))
	}
	src := ifaces[0]
	src.Node.Send(src, packet.New(src.Addr, addr.AllRouters, packet.ProtoPIM, []byte{1}), 0)
	n.Sched.Run(0)
	if got["r2"] != 0 || got["r3"] != 1 {
		t.Fatalf("delivery with r2 down: %v, want only r3", got)
	}
	// ...nor transmits.
	dead := ifaces[1]
	dead.Node.Send(dead, packet.New(dead.Addr, addr.AllRouters, packet.ProtoPIM, []byte{1}), 0)
	n.Sched.Run(0)
	if got["r1"] != 0 || got["r3"] != 1 {
		t.Fatalf("dead iface transmitted: %v", got)
	}

	n.SetIfaceUp(ifaces[1], true)
	src.Node.Send(src, packet.New(src.Addr, addr.AllRouters, packet.ProtoPIM, []byte{1}), 0)
	n.Sched.Run(0)
	if got["r2"] != 1 {
		t.Fatalf("restored iface did not receive: %v", got)
	}
}

func TestDropReasonString(t *testing.T) {
	cases := map[DropReason]string{
		DropIfaceDown:    "dropIfaceDown",
		DropLinkDown:     "dropLinkDown",
		DropMalformed:    "dropMalformed",
		DropNoHandler:    "dropNoHandler",
		DropInjectedLoss: "dropInjectedLoss",
		DropReason(99):   "dropUnknown",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("DropReason(%d).String() = %q, want %q", int(r), got, want)
		}
	}
	var s Stats
	s.Drop(DropLinkDown)
	s.Drop(DropLinkDown)
	s.Drop(DropInjectedLoss)
	byName := s.DropsByName()
	if len(byName) != 2 || byName["dropLinkDown"] != 2 || byName["dropInjectedLoss"] != 1 {
		t.Errorf("DropsByName() = %v", byName)
	}
}
